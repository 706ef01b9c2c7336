package server

import (
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/live"
)

// DefaultMaxQueueWait bounds how long an admitted-but-queued request waits
// for a solver slot before being shed as overloaded.
const DefaultMaxQueueWait = 30 * time.Second

// Config tunes a Server. The zero value is a sensible production setup:
// GOMAXPROCS concurrent solves, a 256-entry result cache, no default
// deadline (clients opt in per request via timeout_ms).
type Config struct {
	// MaxConcurrent bounds simultaneously running solves and graph loads;
	// <= 0 means GOMAXPROCS. Requests beyond the bound queue until a slot
	// frees or their context dies.
	MaxConcurrent int
	// CacheSize bounds the LRU result cache; <= 0 means 256 entries.
	CacheSize int
	// DefaultTimeout applies to solve requests that do not carry their own
	// timeout_ms; 0 means no default deadline.
	DefaultTimeout time.Duration
	// MaxTimeout caps every per-request deadline (and imposes one on
	// requests without any); 0 means uncapped.
	MaxTimeout time.Duration
	// MaxQueueWait bounds how long a request waits for a solver slot
	// before a 503 overloaded rejection (with a Retry-After header); 0
	// means DefaultMaxQueueWait, negative means wait as long as the
	// request context lives.
	MaxQueueWait time.Duration
	// StartUnready makes GET /readyz report 503 until MarkReady is called
	// — for servers that load graphs in the background at startup.
	// /healthz is live either way. The default (false) is ready at birth.
	StartUnready bool
	// PublishExpvar also registers the metrics in the process-global
	// expvar registry (first server in the process wins). The per-server
	// /debug/vars endpoint works either way.
	PublishExpvar bool
	// EnablePprof mounts the net/http/pprof profiling endpoints under
	// /debug/pprof/ (index, cmdline, profile, symbol, trace, and the
	// runtime profiles heap/goroutine/block/mutex via the index). Off by
	// default: CPU profiling holds a process-wide lock and the endpoints
	// leak implementation detail, so they are an explicit opt-in
	// (cmd/dsdserver -pprof).
	EnablePprof bool
	// TracePhases attaches a dsd.Trace to every uncached solve and folds
	// the per-phase solver wall times into the PhaseMsSum metric, keyed
	// "algo/phase". Off by default; the per-solve tracing overhead is
	// small but nonzero. Clients can still request a trace per call via
	// the solve option "trace" regardless of this setting.
	TracePhases bool
	// LiveQueueDepth bounds each live graph's single-writer mutation
	// queue; an enqueue beyond it is a 429 mutation_backlog. <= 0 means
	// the live package default (64).
	LiveQueueDepth int
	// DegradePolicy selects the deadline-aware degradation behavior:
	// DegradeOff (the default, run exactly what was asked) or DegradeAuto
	// (downgrade exact solves predicted to miss their deadline to a
	// registered approximation, or reject up front with 503
	// deadline_infeasible when nothing fits).
	DegradePolicy string
	// Quota is the per-tenant admission policy for the expensive routes
	// (solves, mutations, graph loads), keyed on the X-DSD-Tenant header.
	// The zero value enforces nothing; per-tenant request counters are
	// recorded regardless.
	Quota QuotaConfig
}

// Server is the densest-subgraph query service: a graph registry, a result
// cache, admission control, and metrics behind a net/http mux. Construct
// with New, mount Handler on an http.Server, and drain with
// http.Server.Shutdown — handlers hold no state that outlives a request,
// so the standard graceful shutdown drains in-flight solves completely.
type Server struct {
	cfg     Config
	reg     *Registry
	cache   *Cache
	metrics *Metrics
	sem     chan struct{}
	mux     *http.ServeMux
	ready   atomic.Bool
	flights *flightGroup
	quota   *tenantLimiter

	// solveGate, when set (tests only), runs inside solveInSlot
	// after admission and before the solver call.
	solveGate func()
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 256
	}
	if cfg.MaxQueueWait == 0 {
		cfg.MaxQueueWait = DefaultMaxQueueWait
	} else if cfg.MaxQueueWait < 0 {
		cfg.MaxQueueWait = 0 // acquire: no timer, wait on the request context
	}
	m := NewMetrics()
	if cfg.PublishExpvar {
		m.Publish()
	}
	s := &Server{
		cfg:     cfg,
		reg:     NewRegistry(),
		cache:   NewCache(cfg.CacheSize, &m.CacheHits, &m.CacheMisses),
		metrics: m,
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		mux:     http.NewServeMux(),
		flights: newFlightGroup(func() { m.Panics.Add(1) }),
		quota:   newTenantLimiter(cfg.Quota, &m.RequestsByTenant, &m.QuotaRejectsByTenant),
	}
	// Live mutation publishes advance the graph version; the cache drops
	// the displaced entries eagerly rather than waiting for LRU pressure.
	s.reg.onPublish = func(name string) { s.cache.InvalidateGraph(name) }
	s.mux.Handle("GET /graphs", s.route("list_graphs", s.handleListGraphs))
	s.mux.Handle("POST /graphs", s.route("load_graph", s.handleLoadGraph))
	s.mux.Handle("GET /graphs/{name}", s.route("get_graph", s.handleGetGraph))
	s.mux.Handle("DELETE /graphs/{name}", s.route("delete_graph", s.handleDeleteGraph))
	s.mux.Handle("POST /graphs/{name}/edges", s.route("mutate_graph", s.handleMutateGraph))
	s.mux.Handle("GET /graphs/{name}/densest", s.route("densest", s.handleDensest))
	s.mux.Handle("POST /solve/uds", s.route("solve_uds", solveHandler(s, udsFamily)))
	s.mux.Handle("POST /solve/dds", s.route("solve_dds", solveHandler(s, ddsFamily)))
	s.mux.Handle("GET /debug/vars", m.handler())
	if cfg.EnablePprof {
		// No method in the patterns: pprof.Symbol serves both GET and POST.
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n"))
	})
	// /readyz is the load-balancer gate: live (healthz) from the first
	// listen, ready only once startup graph loads have landed, so traffic
	// is not routed to a replica that would 404 every named graph.
	s.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if !s.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte("loading\n"))
			return
		}
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ready\n"))
	})
	s.ready.Store(!cfg.StartUnready)
	return s
}

// MarkReady flips /readyz to 200 — called once background startup loading
// completes (no-op for servers constructed ready).
func (s *Server) MarkReady() { s.ready.Store(true) }

// Ready reports the current /readyz state.
func (s *Server) Ready() bool { return s.ready.Load() }

// Handler returns the root handler for mounting on an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the graph registry for programmatic preloading
// (cmd/dsdserver's -load flags, embedded servers, tests).
func (s *Server) Registry() *Registry { return s.reg }

// liveConfig derives the per-graph live configuration from the server's.
func (s *Server) liveConfig() live.Config {
	return live.Config{QueueDepth: s.cfg.LiveQueueDepth}
}

// PutLive registers an already-built undirected graph as a live graph —
// the programmatic twin of POST /graphs with "live": true (cmd/dsdserver's
// -load name=path,live specs, embedded servers, tests).
func (s *Server) PutLive(name string, g *dsd.Graph, source string, replace bool) (*GraphEntry, error) {
	return s.reg.PutLive(name, g, source, replace, s.liveConfig())
}

// Cache exposes the result cache (tests and diagnostics).
func (s *Server) Cache() *Cache { return s.cache }

// Metrics exposes the metrics set (tests and diagnostics).
func (s *Server) Metrics() *Metrics { return s.metrics }
