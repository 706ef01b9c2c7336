package live

// Expvar series names owned by the live-graph subsystem. The server's
// metrics surface (internal/server/metrics.go) renders these series from
// counters it maintains on the subsystem's behalf, but the names belong
// here: they describe live-graph behavior (mutation batches, incremental
// repair sizes, delta-log compactions), and a dashboard keyed on them
// must keep working even if the serving tier is rebuilt. The registry
// analyzer enforces that each constant is listed exactly once in
// MetricNames(); TestMetricNameRegistry in internal/server pins
// snake_case, cross-package distinctness and that every name reaches the
// wire.
const (
	// MetricMutationsByGraph counts applied mutation batches per live
	// graph; MetricMutationEdges counts the structural edge changes
	// (inserted + deleted, no-ops excluded) across all of them.
	MetricMutationsByGraph = "mutations_by_graph"
	MetricMutationEdges    = "mutation_edges"
	// MetricRepairTouchedHist is the log₂-bucketed histogram of per-batch
	// incremental-repair sizes (vertices moved by the traversal repair).
	MetricRepairTouchedHist = "repair_touched_hist"
	// MetricLiveCompactions / MetricLiveCompactionMsSum track delta-log
	// compactions and their cumulative wall time; MetricLiveRecomputes
	// counts batches that took the oversized full-recompute fallback.
	MetricLiveCompactions     = "live_compactions"
	MetricLiveCompactionMsSum = "live_compaction_ms_sum"
	MetricLiveRecomputes      = "live_recomputes"
)

// MetricNames returns every live-owned expvar series name, in declaration
// order. The registry analyzer checks the list against the Metric*
// constants above in both directions (nothing missing, nothing listed
// twice).
func MetricNames() []string {
	return []string{
		MetricMutationsByGraph,
		MetricMutationEdges,
		MetricRepairTouchedHist,
		MetricLiveCompactions,
		MetricLiveCompactionMsSum,
		MetricLiveRecomputes,
	}
}
