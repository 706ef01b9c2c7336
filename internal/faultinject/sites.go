package faultinject

// The probe-site registry. Every faultinject.Hit/Fire call site in the
// repository must name its site through one of these constants: a typo in
// a raw string literal silently turns a chaos test into a no-op (the
// armed fault never matches the misspelled site), so the names live in
// exactly one place and the registry analyzer in
// internal/analysis/registry rejects call sites that bypass it. The
// same analyzer checks that Sites() lists every constant exactly once;
// TestSitesRegistryDistinct checks that the values are pairwise distinct.
const (
	// SiteParallelForChunk fires once per work chunk claimed by the
	// parallel For/ForGrain/ForBlocks drivers (and once per region on the
	// serial fallback).
	SiteParallelForChunk = "parallel.for.chunk"
	// SiteParallelWorkers fires once per worker launched by
	// parallel.Workers (and once on the serial fallback).
	SiteParallelWorkers = "parallel.workers"
	// SiteGraphIOText fires per buffered line batch while parsing text
	// edge lists.
	SiteGraphIOText = "graph.io.text"
	// SiteGraphIOHeader fires after a binary graph header is read, before
	// the payload.
	SiteGraphIOHeader = "graph.io.header"
	// SiteGraphIOEdges fires per chunked binary edge read.
	SiteGraphIOEdges = "graph.io.edges"
	// SiteRegistryLoad fires after a server registry load has parsed its
	// graph, just before the entry is published.
	SiteRegistryLoad = "registry.load"
	// SiteLiveApply fires at the head of every live mutation batch, before
	// any edge is applied — an injected error rejects the batch atomically.
	SiteLiveApply = "live.apply"
	// SiteLivePublish fires after a mutation batch is applied, just before
	// the new graph version is published to the registry — an injected
	// error leaves the mutations applied but unversioned; the next
	// successful batch publishes them.
	SiteLivePublish = "live.publish"
	// SiteFlightLeader fires inside a coalesced solve's leader goroutine,
	// after admission and before the solver runs — a panic here must
	// poison exactly one flight (every waiter gets the structured 500) and
	// the next request must start a fresh flight.
	SiteFlightLeader = "server.flight.leader"
	// SiteQuotaClock fires on every per-tenant quota clock read. ModeDelay
	// simulates clock skew (the token bucket must clamp negative elapsed
	// time); ModeError simulates an unreadable clock, on which the limiter
	// fails open — overload protection must never turn a clock fault into
	// an outage.
	SiteQuotaClock = "server.quota.clock"
	// SiteSnapshotWrite fires just before a registry snapshot is renamed
	// into place — an injected error aborts the write, leaving any previous
	// manifest intact.
	SiteSnapshotWrite = "server.snapshot.write"
	// SiteSnapshotLoad fires after a registry snapshot has been read, before
	// any graph is restored — an injected error (like a corrupt manifest)
	// degrades the warm restart to a cold start, never a crash.
	SiteSnapshotLoad = "server.snapshot.load"
)

// Sites returns every registered probe-site name. Chaos tests iterate it
// to prove that each probe is reachable (a registered-but-dead probe is
// as useless as a misspelled one), and the registry analyzer checks it
// stays in sync with the constants above.
func Sites() []string {
	return []string{
		SiteParallelForChunk,
		SiteParallelWorkers,
		SiteGraphIOText,
		SiteGraphIOHeader,
		SiteGraphIOEdges,
		SiteRegistryLoad,
		SiteLiveApply,
		SiteLivePublish,
		SiteFlightLeader,
		SiteQuotaClock,
		SiteSnapshotWrite,
		SiteSnapshotLoad,
	}
}
