package server

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/live"
	"repro/internal/trace"
)

// Expvar series names owned by the serving tier. Dashboards key on these
// strings, so they are constants with a registry rather than literals
// scattered through snapshot(): the registry analyzer enforces that
// every name is listed exactly once in MetricNames(), and
// TestMetricNameRegistry pins that every name is snake_case, that names
// are distinct across this package and internal/live (which owns the
// mutation/compaction series), and that every registered name actually
// appears on the wire.
const (
	MetricRequests             = "requests"
	MetricErrors               = "errors"
	MetricLatencyMsSum         = "latency_ms_sum"
	MetricLatencyMsMax         = "latency_ms_max"
	MetricActiveRequests       = "active_requests"
	MetricPanics               = "panics"
	MetricCacheHits            = "cache_hits"
	MetricCacheMisses          = "cache_misses"
	MetricSolvesByGraph        = "solves_by_graph"
	MetricSolvesByAlgo         = "solves_by_algo"
	MetricSolveLatencyHist     = "solve_latency_hist"
	MetricPhaseMsSum           = "phase_ms_sum"
	MetricCoalescedSolves      = "coalesced_solves"
	MetricDegradedSolves       = "degraded_solves"
	MetricMaintainedSolves     = "maintained_solves"
	MetricRequestsByTenant     = "requests_by_tenant"
	MetricQuotaRejectsByTenant = "quota_rejects_by_tenant"
	MetricSolveEstimateMs      = "solve_estimate_ms"
	MetricSnapshotSaves        = "snapshot_saves"
	MetricSnapshotRestores     = "snapshot_restores"
	// MetricRoot is the process-global expvar name the whole surface is
	// published under at /debug/vars.
	MetricRoot = "dsdserver"
)

// MetricNames returns every server-owned expvar name, in declaration
// order (the live-graph series names live in internal/live's registry).
// The registry analyzer checks the list against the Metric* constants
// above in both directions.
func MetricNames() []string {
	return []string{
		MetricRequests,
		MetricErrors,
		MetricLatencyMsSum,
		MetricLatencyMsMax,
		MetricActiveRequests,
		MetricPanics,
		MetricCacheHits,
		MetricCacheMisses,
		MetricSolvesByGraph,
		MetricSolvesByAlgo,
		MetricSolveLatencyHist,
		MetricPhaseMsSum,
		MetricCoalescedSolves,
		MetricDegradedSolves,
		MetricMaintainedSolves,
		MetricRequestsByTenant,
		MetricQuotaRejectsByTenant,
		MetricSolveEstimateMs,
		MetricSnapshotSaves,
		MetricSnapshotRestores,
		MetricRoot,
	}
}

// Metrics is the server's expvar surface: request counts, latency sums and
// maxima per route, structured-error counts per code, cache hit/miss
// totals, and the active-request gauge. Every field is an expvar type, so
// the whole struct renders as one JSON document at /debug/vars; Publish
// additionally registers it in the process-global expvar registry (once —
// later servers in the same process keep private metrics only, which is
// what tests want).
type Metrics struct {
	Requests     expvar.Map // per route: completed request count
	ErrorsByCode expvar.Map // per structured error code
	LatencyMsSum expvar.Map // per route: cumulative handler milliseconds
	LatencyMsMax expvar.Map // per route: worst single request
	Active       expvar.Int // requests currently inside a handler
	// Panics counts contained solver/handler panics: recovered solve
	// panics surfaced as structured internal errors plus last-resort
	// recoveries in the route middleware. A nonzero value means a bug was
	// survived — alert on it, the process did not.
	Panics      expvar.Int
	CacheHits   expvar.Int
	CacheMisses expvar.Int
	// SolvesByGraph / SolvesByAlgo count completed (uncached) solves per
	// resident graph name and per algorithm — the per-workload traffic
	// split a capacity planner wants next to the per-route totals.
	SolvesByGraph expvar.Map
	SolvesByAlgo  expvar.Map
	// SolveLatencyHist is a log₂-bucketed histogram of solve wall times:
	// keys "le_1ms", "le_2ms", ... "le_32768ms", "inf" count solves at or
	// under each bound (non-cumulative buckets, one increment per solve).
	SolveLatencyHist expvar.Map
	// PhaseMsSum accumulates solver-phase wall time per "algo/phase" key
	// (e.g. "PKMC/core-decomposition") when Config.TracePhases is on —
	// the serving-side view of the observability layer's phase timings.
	PhaseMsSum expvar.Map
	// MutationsByGraph counts applied mutation batches per live graph;
	// MutationEdges counts the structural edge changes (inserted + deleted,
	// no-ops excluded) across all of them.
	MutationsByGraph expvar.Map
	MutationEdges    expvar.Int
	// RepairTouchedHist is a log₂-bucketed histogram of per-batch repair
	// sizes — how many vertices the incremental traversal repair moved:
	// keys "le_1", "le_2", ... "le_32768", "inf". Full recomputes are
	// counted in LiveRecomputes instead, not here.
	RepairTouchedHist expvar.Map
	// LiveCompactions / LiveCompactionMsSum track delta-log compactions
	// (snapshot rebase + from-scratch core recompute) and their cumulative
	// wall time; LiveRecomputes counts batches that took the oversized
	// full-recompute fallback instead of per-edge repair.
	LiveCompactions     expvar.Int
	LiveCompactionMsSum expvar.Float
	LiveRecomputes      expvar.Int
	// CoalescedSolves counts requests that rode another request's in-flight
	// solve instead of running their own — the singleflight savings gauge
	// (a burst of N identical queries shows N-1 here and 1 in the solve
	// counters).
	CoalescedSolves expvar.Int
	// DegradedSolves counts requests the deadline-aware policy downgraded
	// from an exact solver to a registered approximation.
	DegradedSolves expvar.Int
	// MaintainedSolves counts live-graph solves answered from the
	// maintained k*-core instead of a solver run; they are not counted in
	// the solve counters, the latency histogram or the cache totals.
	MaintainedSolves expvar.Int
	// RequestsByTenant / QuotaRejectsByTenant split the expensive-route
	// traffic (solves, mutations, loads) per X-DSD-Tenant header — the
	// noisy-neighbor forensics a 429 spike calls for.
	RequestsByTenant     expvar.Map
	QuotaRejectsByTenant expvar.Map
	// SolveEstimateMs is the per-"graph/algo" latency estimate (EWMA of
	// completed uncached solves, milliseconds) that the degradation policy
	// consults; exported so operators can see why a request was degraded.
	SolveEstimateMs expvar.Map
	// SnapshotSaves / SnapshotRestores count registry manifest writes and
	// warm-restart restores (graphs brought back resident).
	SnapshotSaves    expvar.Int
	SnapshotRestores expvar.Int

	maxMu sync.Mutex // LatencyMsMax read-modify-write

	estMu sync.Mutex // SolveEstimateMs EWMA read-modify-write
	est   map[string]float64
}

// NewMetrics returns a zeroed, unpublished metrics set.
func NewMetrics() *Metrics {
	m := &Metrics{}
	m.Requests.Init()
	m.ErrorsByCode.Init()
	m.LatencyMsSum.Init()
	m.LatencyMsMax.Init()
	m.SolvesByGraph.Init()
	m.SolvesByAlgo.Init()
	m.SolveLatencyHist.Init()
	m.PhaseMsSum.Init()
	m.MutationsByGraph.Init()
	m.RepairTouchedHist.Init()
	m.RequestsByTenant.Init()
	m.QuotaRejectsByTenant.Init()
	m.SolveEstimateMs.Init()
	m.est = map[string]float64{}
	return m
}

// latencyBucket returns the histogram key for one solve duration: the
// smallest power-of-two millisecond bound at or above it, capped at 2¹⁵ ms
// (~33 s) with everything beyond in "inf".
func latencyBucket(elapsed time.Duration) string {
	ms := elapsed.Milliseconds()
	for bound := int64(1); bound <= 32768; bound *= 2 {
		if ms <= bound {
			return fmt.Sprintf("le_%dms", bound)
		}
	}
	return "inf"
}

// estimateAlpha is the EWMA weight of the newest sample in the per-
// (graph, algorithm) latency estimate — high enough to track a graph that
// just grew, low enough that one noisy solve does not flip the degradation
// policy.
const estimateAlpha = 0.3

// ObserveSolve records one completed, uncached solve: the per-graph and
// per-algorithm counters, the latency histogram bucket, and the
// (graph, wireAlgo) latency estimate the degradation policy consults.
// algo is the solver-reported name (e.g. "PKMC"); wireAlgo the canonical
// request-side name (e.g. "pkmc") — estimates must key on what clients
// ask for, which is what planSolve gets to see. phases, when non-nil
// (Config.TracePhases), folds each solver phase's wall time into
// PhaseMsSum under "algo/phase".
func (m *Metrics) ObserveSolve(graphName, algo, wireAlgo string, elapsed time.Duration, phases []trace.Phase) {
	m.SolvesByGraph.Add(graphName, 1)
	m.SolvesByAlgo.Add(algo, 1)
	m.SolveLatencyHist.Add(latencyBucket(elapsed), 1)
	for _, ph := range phases {
		m.PhaseMsSum.AddFloat(algo+"/"+ph.Name, ph.Seconds*1000)
	}
	if wireAlgo == "" {
		return
	}
	key := graphName + "/" + wireAlgo
	ms := float64(elapsed) / float64(time.Millisecond)
	m.estMu.Lock()
	if old, ok := m.est[key]; ok {
		ms = (1-estimateAlpha)*old + estimateAlpha*ms
	}
	m.est[key] = ms
	m.estMu.Unlock()
	ev := new(expvar.Float)
	ev.Set(ms)
	m.SolveEstimateMs.Set(key, ev)
}

// EstimateMs returns the current latency estimate for one (graph,
// request-side algorithm) pair, false when no uncached solve has been
// observed for it yet.
func (m *Metrics) EstimateMs(graphName, wireAlgo string) (float64, bool) {
	m.estMu.Lock()
	defer m.estMu.Unlock()
	ms, ok := m.est[graphName+"/"+wireAlgo]
	return ms, ok
}

// countBucket is latencyBucket for unitless counts (repair sizes): the
// smallest power-of-two bound at or above n, "inf" beyond 2¹⁵.
func countBucket(n int) string {
	for bound := 1; bound <= 32768; bound *= 2 {
		if n <= bound {
			return fmt.Sprintf("le_%d", bound)
		}
	}
	return "inf"
}

// ObserveMutation records one applied mutation batch on a live graph:
// batch and edge-change counters, the repair-size histogram (incremental
// batches only — a full recompute has no meaningful touched count), and
// compaction accounting.
func (m *Metrics) ObserveMutation(graphName string, edges, touched int, recomputed, compacted bool, compactMs float64) {
	m.MutationsByGraph.Add(graphName, 1)
	m.MutationEdges.Add(int64(edges))
	if recomputed {
		m.LiveRecomputes.Add(1)
	} else {
		m.RepairTouchedHist.Add(countBucket(touched), 1)
	}
	if compacted {
		m.LiveCompactions.Add(1)
		m.LiveCompactionMsSum.Add(compactMs)
	}
}

var publishOnce sync.Once

// Publish registers the metrics as the process-global MetricRoot expvar.
// Only the first call in a process wins; expvar.Publish panics on
// duplicates and servers come and go in tests.
func (m *Metrics) Publish() {
	publishOnce.Do(func() {
		expvar.Publish(MetricRoot, expvar.Func(func() any { return rawJSON(m.snapshot()) }))
	})
}

// Observe records one completed request on route.
func (m *Metrics) Observe(route string, elapsed time.Duration) {
	ms := float64(elapsed) / float64(time.Millisecond)
	m.Requests.Add(route, 1)
	m.LatencyMsSum.AddFloat(route, ms)
	m.maxMu.Lock()
	cur, ok := m.LatencyMsMax.Get(route).(*expvar.Float)
	if !ok {
		cur = new(expvar.Float)
		m.LatencyMsMax.Set(route, cur)
	}
	if cur.Value() < ms {
		cur.Set(ms)
	}
	m.maxMu.Unlock()
}

// Error records one structured error response.
func (m *Metrics) Error(code string) { m.ErrorsByCode.Add(code, 1) }

// metricSeries pairs one wire name with the expvar var rendered under it.
type metricSeries struct {
	name string
	v    expvar.Var
}

// series returns the snapshot's key/var table in wire order. Every name
// is a registered Metric* constant — server-owned ones from this file,
// live-graph ones from internal/live's registry — so a typo'd or
// unregistered key cannot reach a dashboard (TestMetricNameRegistry
// diffs the rendered keys against the registries).
func (m *Metrics) series() []metricSeries {
	return []metricSeries{
		{MetricRequests, &m.Requests},
		{MetricErrors, &m.ErrorsByCode},
		{MetricLatencyMsSum, &m.LatencyMsSum},
		{MetricLatencyMsMax, &m.LatencyMsMax},
		{MetricActiveRequests, &m.Active},
		{MetricPanics, &m.Panics},
		{MetricCacheHits, &m.CacheHits},
		{MetricCacheMisses, &m.CacheMisses},
		{MetricSolvesByGraph, &m.SolvesByGraph},
		{MetricSolvesByAlgo, &m.SolvesByAlgo},
		{MetricSolveLatencyHist, &m.SolveLatencyHist},
		{MetricPhaseMsSum, &m.PhaseMsSum},
		{live.MetricMutationsByGraph, &m.MutationsByGraph},
		{live.MetricMutationEdges, &m.MutationEdges},
		{live.MetricRepairTouchedHist, &m.RepairTouchedHist},
		{live.MetricLiveCompactions, &m.LiveCompactions},
		{live.MetricLiveCompactionMsSum, &m.LiveCompactionMsSum},
		{live.MetricLiveRecomputes, &m.LiveRecomputes},
		{MetricCoalescedSolves, &m.CoalescedSolves},
		{MetricDegradedSolves, &m.DegradedSolves},
		{MetricMaintainedSolves, &m.MaintainedSolves},
		{MetricRequestsByTenant, &m.RequestsByTenant},
		{MetricQuotaRejectsByTenant, &m.QuotaRejectsByTenant},
		{MetricSolveEstimateMs, &m.SolveEstimateMs},
		{MetricSnapshotSaves, &m.SnapshotSaves},
		{MetricSnapshotRestores, &m.SnapshotRestores},
	}
}

// snapshot renders the metrics as one JSON object (expvar vars stringify
// to JSON by contract), iterating the series table so the key set cannot
// drift from the registered names.
func (m *Metrics) snapshot() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, s := range m.series() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:%s", s.name, s.v.String())
	}
	b.WriteByte('}')
	return b.String()
}

// rawJSON marks an already-encoded JSON string so expvar.Func does not
// re-escape it.
type rawJSON string

// MarshalJSON returns the string verbatim.
func (r rawJSON) MarshalJSON() ([]byte, error) { return []byte(r), nil }

// handler serves the metrics in the expvar wire format at /debug/vars.
func (m *Metrics) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		io.WriteString(w, `{"dsdserver": `+m.snapshot()+"}\n")
	})
}
