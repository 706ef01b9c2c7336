// Command dsdserver runs the densest-subgraph query service: graphs are
// loaded once (at startup via -load, or at runtime via POST /graphs), stay
// resident in memory, and every solver of the library is reachable through
// JSON endpoints with per-request deadlines, admission control, and an LRU
// result cache.
//
// Usage:
//
//	dsdserver [-addr :8080] [-load name=path[,directed|,live]]...
//	          [-max-concurrent N] [-cache N] [-max-queue-wait 30s]
//	          [-default-timeout 0] [-max-timeout 0] [-drain 30s]
//	          [-live-queue N] [-pprof] [-trace-phases]
//	          [-state-dir DIR] [-state-interval 30s]
//	          [-quota rate=R[,burst=B][,concurrent=C]] [-degrade off|auto]
//
// Endpoints:
//
//	GET    /graphs            list resident graphs with stats
//	POST   /graphs            load a graph {"name", "path"|"edges", "directed", "replace"}
//	GET    /graphs/{name}     one graph's stats
//	DELETE /graphs/{name}     drop a graph
//	POST   /solve/uds         {"graph", "algo", "options"} -> densest subgraph
//	POST   /solve/dds         {"graph", "algo", "options"} -> densest (S, T)
//	POST   /graphs/{name}/edges  batched edge mutations on a live graph
//	GET    /graphs/{name}/densest  standing 2-approx answer of a live graph
//	GET    /debug/vars        expvar metrics (requests, latency, cache, active, panics,
//	                          per-graph/per-algo solves, solve-latency histogram, phase times)
//	GET    /debug/pprof/      profiling endpoints (-pprof only)
//	GET    /healthz           liveness probe
//	GET    /readyz            readiness probe (503 until -load graphs are resident)
//
// SIGINT/SIGTERM trigger a graceful shutdown that drains in-flight
// requests for up to -drain before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/server"
)

// loadSpec is one -load flag: name=path, with optional ",directed" or
// ",live" modifiers (mutually exclusive — mutations are undirected-only).
type loadSpec struct {
	name, path string
	directed   bool
	live       bool
}

// options is the parsed flag set.
type options struct {
	addr          string
	loads         []loadSpec
	maxConcurrent int
	cacheSize     int
	defaultTO     time.Duration
	maxTO         time.Duration
	maxQueueWait  time.Duration
	drain         time.Duration
	pprof         bool
	tracePhases   bool
	liveQueue     int
	stateDir      string
	stateInterval time.Duration
	degrade       string
	quota         server.QuotaConfig
}

func main() {
	opts, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsdserver:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, opts, log.New(os.Stderr, "dsdserver: ", log.LstdFlags)); err != nil {
		fmt.Fprintln(os.Stderr, "dsdserver:", err)
		os.Exit(1)
	}
}

func parseArgs(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("dsdserver", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&o.maxConcurrent, "max-concurrent", 0, "max simultaneous solves/loads (0 = GOMAXPROCS)")
	fs.IntVar(&o.cacheSize, "cache", 0, "result cache entries (0 = 256)")
	fs.DurationVar(&o.defaultTO, "default-timeout", 0, "deadline for requests without timeout_ms (0 = none)")
	fs.DurationVar(&o.maxTO, "max-timeout", 0, "cap on per-request deadlines (0 = uncapped)")
	fs.DurationVar(&o.maxQueueWait, "max-queue-wait", 0, "how long a request may queue for a solver slot before a 503 (0 = 30s, negative = unbounded)")
	fs.DurationVar(&o.drain, "drain", 30*time.Second, "graceful-shutdown drain window")
	fs.BoolVar(&o.pprof, "pprof", false, "mount net/http/pprof profiling endpoints under /debug/pprof/")
	fs.BoolVar(&o.tracePhases, "trace-phases", false, "trace every solve and export per-phase wall times at /debug/vars")
	fs.IntVar(&o.liveQueue, "live-queue", 0, "per-live-graph mutation queue depth; overflow is a 429 (0 = 64)")
	fs.StringVar(&o.stateDir, "state-dir", "", "directory for warm-restart snapshots: the resident-graph manifest is saved there on shutdown and every -state-interval, and restored at startup")
	fs.DurationVar(&o.stateInterval, "state-interval", 30*time.Second, "period between snapshot saves with -state-dir (0 = only at shutdown)")
	fs.StringVar(&o.degrade, "degrade", server.DegradeOff, "deadline-aware degradation policy: \"off\" or \"auto\" (downgrade exact solves predicted to miss their deadline to a registered approximation)")
	fs.Func("quota", "per-tenant admission, rate=R[,burst=B][,concurrent=C] (R req/s token refill, B bucket size, C max in-flight; keyed on the X-DSD-Tenant header)", func(v string) error {
		q, err := parseQuotaSpec(v)
		if err != nil {
			return err
		}
		o.quota = q
		return nil
	})
	fs.Func("load", "graph to preload, name=path[,directed|,live] (repeatable)", func(v string) error {
		spec, err := parseLoadSpec(v)
		if err != nil {
			return err
		}
		o.loads = append(o.loads, spec)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if o.degrade != server.DegradeOff && o.degrade != server.DegradeAuto {
		return nil, fmt.Errorf("-degrade must be %q or %q, got %q", server.DegradeOff, server.DegradeAuto, o.degrade)
	}
	return o, nil
}

// parseQuotaSpec parses the -quota flag: comma-separated key=value pairs.
func parseQuotaSpec(v string) (server.QuotaConfig, error) {
	var q server.QuotaConfig
	for _, part := range strings.Split(v, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return q, fmt.Errorf("-quota wants rate=R[,burst=B][,concurrent=C], got %q", v)
		}
		var err error
		switch key {
		case "rate":
			_, err = fmt.Sscanf(val, "%g", &q.Rate)
		case "burst":
			_, err = fmt.Sscanf(val, "%d", &q.Burst)
		case "concurrent":
			_, err = fmt.Sscanf(val, "%d", &q.MaxConcurrent)
		default:
			return q, fmt.Errorf("-quota key must be rate, burst, or concurrent, got %q", key)
		}
		if err != nil {
			return q, fmt.Errorf("-quota %s: %q is not a number", key, val)
		}
	}
	if q.Rate < 0 || q.Burst < 0 || q.MaxConcurrent < 0 {
		return q, fmt.Errorf("-quota values must be non-negative")
	}
	if q.Rate == 0 && q.MaxConcurrent == 0 {
		return q, fmt.Errorf("-quota needs rate and/or concurrent to enforce anything")
	}
	return q, nil
}

func parseLoadSpec(v string) (loadSpec, error) {
	name, rest, ok := strings.Cut(v, "=")
	if !ok || name == "" || rest == "" {
		return loadSpec{}, fmt.Errorf("-load wants name=path[,directed], got %q", v)
	}
	spec := loadSpec{name: name, path: rest}
	if path, mod, ok := strings.Cut(rest, ","); ok {
		switch mod {
		case "directed":
			spec.directed = true
		case "live":
			spec.live = true
		default:
			return loadSpec{}, fmt.Errorf("-load modifier must be \"directed\" or \"live\", got %q", mod)
		}
		spec.path = path
	}
	return spec, nil
}

func run(ctx context.Context, o *options, logger *log.Logger) error {
	srv := server.New(server.Config{
		MaxConcurrent:  o.maxConcurrent,
		CacheSize:      o.cacheSize,
		DefaultTimeout: o.defaultTO,
		MaxTimeout:     o.maxTO,
		MaxQueueWait:   o.maxQueueWait,
		// With preloads (or a snapshot restore) pending, /readyz reports 503
		// until they land, so a load balancer never routes to a replica that
		// would 404 its graphs.
		StartUnready:   len(o.loads) > 0 || o.stateDir != "",
		PublishExpvar:  true,
		EnablePprof:    o.pprof,
		TracePhases:    o.tracePhases,
		LiveQueueDepth: o.liveQueue,
		DegradePolicy:  o.degrade,
		Quota:          o.quota,
	})

	// Listen before loading: liveness and diagnostics are reachable while
	// multi-gigabyte preloads parse, and readiness gates the traffic.
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	logger.Printf("serving on %s (%d graphs preloading)", ln.Addr(), len(o.loads))

	loaded := make(chan error, 1)
	go func() {
		for _, spec := range o.loads {
			start := time.Now()
			var e *server.GraphEntry
			var err error
			if spec.live {
				var g *dsd.Graph
				if g, err = dsd.LoadGraph(spec.path); err == nil {
					e, err = srv.PutLive(spec.name, g, spec.path, false)
				}
			} else {
				e, err = srv.Registry().LoadFile(spec.name, spec.path, spec.directed, false)
			}
			if err != nil {
				loaded <- fmt.Errorf("preloading %s: %w", spec.name, err)
				return
			}
			logger.Printf("loaded %s: n=%d m=%d directed=%t live=%t (%v)",
				e.Name, e.Stats.N, e.Stats.M, e.Directed, e.Live != nil, time.Since(start).Round(time.Millisecond))
		}
		// Warm restart, after explicit preloads so -load wins a name clash.
		// A corrupt or partially-restorable snapshot degrades to whatever
		// did restore — never a crash, never a refusal to start.
		if o.stateDir != "" {
			start := time.Now()
			n, err := srv.RestoreSnapshot(o.stateDir)
			if err != nil {
				logger.Printf("warm restart from %s: %v (continuing with %d restored)", o.stateDir, err, n)
			} else if n > 0 {
				logger.Printf("warm restart: %d graphs restored from %s (%v)",
					n, o.stateDir, time.Since(start).Round(time.Millisecond))
			}
		}
		srv.MarkReady()
		if srv.Registry().Len() > 0 {
			logger.Printf("ready: %d graphs resident", srv.Registry().Len())
		}
		loaded <- nil
	}()

	// Periodic snapshot tick: crash protection between graceful saves.
	snapDone := make(chan struct{})
	if o.stateDir != "" && o.stateInterval > 0 {
		go func() {
			defer close(snapDone)
			t := time.NewTicker(o.stateInterval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if _, err := srv.WriteSnapshot(o.stateDir); err != nil {
						logger.Printf("snapshot to %s: %v", o.stateDir, err)
					}
				case <-ctx.Done():
					return
				}
			}
		}()
	} else {
		close(snapDone)
	}

	var cause error
	select {
	case err := <-errc:
		return err
	case cause = <-loaded:
		if cause == nil {
			// Preloads landed; keep serving until a signal or server error.
			select {
			case err := <-errc:
				return err
			case <-ctx.Done():
			}
		}
		// A failed preload is fatal — a replica that can never become ready
		// should exit loudly, not serve 503s forever — but drains first.
	case <-ctx.Done():
	}
	logger.Printf("shutting down: draining in-flight requests (up to %v)", o.drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain window expired: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// The post-drain snapshot is the authoritative one: every in-flight
	// mutation has landed, so the manifest captures the exact final state.
	<-snapDone
	if o.stateDir != "" {
		if n, err := srv.WriteSnapshot(o.stateDir); err != nil {
			logger.Printf("final snapshot to %s: %v", o.stateDir, err)
		} else {
			logger.Printf("saved %d graphs to %s", n, o.stateDir)
		}
	}
	if cause != nil {
		return cause
	}
	logger.Printf("bye")
	return nil
}
