package live

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro"
	"repro/internal/faultinject"
)

// Config tunes one live graph. The zero value is a sensible serving setup.
type Config struct {
	// CompactEvery bounds the delta log: once at least this many distinct
	// edge slots have been touched since the last compaction, the snapshot
	// is rebased and the core decomposition recomputed from scratch.
	// <= 0 means 4096.
	CompactEvery int
	// RecomputeBatch is the batch size at which a single batch skips
	// per-edge incremental repair and goes straight to the full-recompute
	// fallback (applying that many traversal repairs would cost more than
	// one BZ pass). <= 0 picks max(4096, m/8) adaptively.
	RecomputeBatch int
	// QueueDepth bounds the writer's mutation queue; an enqueue beyond it
	// is rejected with ErrBacklog. <= 0 means 64.
	QueueDepth int
}

func (c Config) withDefaults() Config {
	if c.CompactEvery <= 0 {
		c.CompactEvery = 4096
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	return c
}

// Op selects what a Mutation does.
type Op uint8

const (
	// OpInsert adds an edge (no-op if present or a self-loop).
	OpInsert Op = iota
	// OpDelete removes an edge (no-op if absent or a self-loop).
	OpDelete
)

// Mutation is one edge change.
type Mutation struct {
	Op   Op
	U, V int32
}

// PublishFunc advances the served version after a batch that changed the
// graph: it installs the new stats in the registry and returns the new
// version. It is called with the live graph's internal lock held, so the
// published version and the state it describes advance atomically with
// respect to Snapshot and Densest. A nil PublishFunc counts versions
// locally (tests, benchmarks).
type PublishFunc func(stats dsd.Stats) (int64, error)

// ApplyResult reports one applied batch.
type ApplyResult struct {
	// Version is the graph version after the batch: advanced when the
	// batch changed the graph, unchanged when every mutation was a no-op.
	Version int64 `json:"version"`
	// Inserted and Deleted count structurally applied mutations; Noops
	// counts duplicates-in-state (inserting a present edge, deleting an
	// absent one) and self-loops.
	Inserted int `json:"inserted"`
	Deleted  int `json:"deleted"`
	Noops    int `json:"noops"`
	// Touched is the repair size: how many vertices had their core number
	// changed by the incremental traversal repair (0 on the full-recompute
	// path, where the whole decomposition is rebuilt).
	Touched int `json:"touched"`
	// Recomputed marks the full-recompute fallback (oversized batch).
	Recomputed bool `json:"recomputed,omitempty"`
	// Compacted marks a delta-log compaction after this batch (the
	// full-recompute fallback always compacts).
	Compacted bool `json:"compacted,omitempty"`
	// The standing 2-approximate densest-subgraph answer after the batch.
	KStar    int32   `json:"k_star"`
	CoreSize int     `json:"core_size"`
	Density  float64 `json:"density"`
	// Post-batch graph size.
	N int   `json:"n"`
	M int64 `json:"m"`
	// ApplyMs is the wall time of the batch application (repair included,
	// compaction excluded); CompactMs the compaction that followed, if any.
	ApplyMs   float64 `json:"apply_ms"`
	CompactMs float64 `json:"compact_ms,omitempty"`
}

// Densest is the standing incremental answer served without a solve: the
// k*-core of the graph at Version, with its density.
type Densest struct {
	Version  int64
	KStar    int32
	Vertices []int32
	Density  float64
}

// ApplyPanicError reports a panic contained by the writer while applying a
// batch. The live graph heals itself with a full rebuild from the delta
// log before the error is returned, so subsequent batches see consistent
// state; the panicking batch may be partially applied up to the mutation
// that died.
type ApplyPanicError struct {
	Value any
}

func (e *ApplyPanicError) Error() string {
	return fmt.Sprintf("live: apply panicked (contained, state rebuilt): %v", e.Value)
}

// Graph is one live graph: the single-writer mutable state behind a name
// in the server registry. All mutation entry points (Apply, the writer
// loop) must run in one goroutine; Snapshot, Densest, Version, N and M are
// safe from any goroutine.
type Graph struct {
	cfg     Config
	publish PublishFunc

	mu  sync.RWMutex
	dyn *dsd.DynamicGraph
	// densest is the k*-core answer of the current state, refreshed by
	// every batch that changes the graph; Densest pairs it with version.
	densest Densest
	n       int
	m       int64
	// maxDeg is exact after compactions and insert-only traffic, and an
	// upper bound between a deletion and the next compaction.
	maxDeg int32
	// base and delta are the delta log: base is the edge list at the last
	// compaction, in canonical order (u < v, ascending), and delta the
	// present/absent overlay of every edge slot touched since. A snapshot
	// merges the two: base edges the overlay does not mark absent, plus the
	// overlay's present slots.
	base  []dsd.Edge
	delta map[uint64]bool
	// compactions counts delta-log rebases since the graph was wrapped —
	// the warm-restart manifest's compaction cursor: while it is zero the
	// original source plus the delta log reproduces the state exactly.
	compactions int64
	// version mirrors the registry; snap caches the last materialized
	// snapshot so repeated solves between batches share one build.
	version     int64
	snap        *dsd.Graph
	snapVersion int64

	localVersion int64 // fallback counter when publish is nil

	// Writer state (see writer.go).
	queue   chan request
	stop    chan struct{}
	done    chan struct{}
	started bool
	closed  bool
	wmu     sync.Mutex // guards started/closed transitions
}

// New wraps a static graph as a live graph. The seed decomposition runs
// once, over g itself (dsd.NewDynamicGraph only reads it); publish may be
// nil for registry-less use.
func New(g *dsd.Graph, cfg Config, publish PublishFunc) *Graph {
	cfg = cfg.withDefaults()
	lg := &Graph{
		cfg:     cfg,
		publish: publish,
		dyn:     dsd.NewDynamicGraph(g),
		n:       g.N(),
		m:       g.M(),
		maxDeg:  g.Stats().MaxDegree,
		base:    g.Edges(),
		delta:   map[uint64]bool{},
		queue:   make(chan request, cfg.QueueDepth),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	lg.refreshDensestLocked()
	// The wrapped graph is immutable and already canonical: serve it as
	// the version-0 snapshot until the first batch.
	lg.snap, lg.snapVersion = g, 0
	return lg
}

// N returns the (fixed) vertex count.
func (lg *Graph) N() int { return lg.n }

// M returns the current edge count.
func (lg *Graph) M() int64 {
	lg.mu.RLock()
	defer lg.mu.RUnlock()
	return lg.m
}

// Version returns the current served version.
func (lg *Graph) Version() int64 {
	lg.mu.RLock()
	defer lg.mu.RUnlock()
	return lg.version
}

// SetVersion installs the initial registry version (called once, after the
// first publish and before the writer starts).
func (lg *Graph) SetVersion(v int64) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	if lg.snapVersion == lg.version {
		lg.snapVersion = v
	}
	lg.version = v
}

// DeltaLen returns the current delta-log size (diagnostics, tests).
func (lg *Graph) DeltaLen() int {
	lg.mu.RLock()
	defer lg.mu.RUnlock()
	return len(lg.delta)
}

// Compactions returns how many delta-log compactions have run since the
// graph was wrapped. Warm restart uses it as the compaction cursor: at
// zero, replaying DeltaMutations over the original source reproduces the
// current state; after any compaction the base has been rebased away from
// the source and the state must be rematerialized instead.
func (lg *Graph) Compactions() int64 {
	lg.mu.RLock()
	defer lg.mu.RUnlock()
	return lg.compactions
}

// DeltaMutations returns the delta log as a replayable batch: one OpInsert
// per present overlay slot, one OpDelete per absent one (order is
// irrelevant — each slot is independent). Replaying it over the edge state
// at the last compaction reproduces the current graph.
func (lg *Graph) DeltaMutations() []Mutation {
	lg.mu.RLock()
	defer lg.mu.RUnlock()
	out := make([]Mutation, 0, len(lg.delta))
	for k, present := range lg.delta {
		u, v := unpackKey(k)
		op := OpDelete
		if present {
			op = OpInsert
		}
		out = append(out, Mutation{Op: op, U: u, V: v})
	}
	return out
}

// Stats summarizes the current graph. MaxDegree is an upper bound between
// a deletion and the next compaction, exact otherwise.
func (lg *Graph) Stats() dsd.Stats {
	lg.mu.RLock()
	defer lg.mu.RUnlock()
	return lg.statsLocked()
}

func (lg *Graph) statsLocked() dsd.Stats {
	s := dsd.Stats{N: lg.n, M: lg.m, MaxDegree: lg.maxDeg}
	if lg.n > 0 {
		s.AvgDegree = 2 * float64(lg.m) / float64(lg.n)
	}
	return s
}

// Snapshot returns an immutable graph of the current state and the version
// it corresponds to. The build is copy-on-write: the returned graph is
// never mutated, and repeated calls between batches share one
// materialization.
func (lg *Graph) Snapshot() (*dsd.Graph, int64) {
	lg.mu.RLock()
	if lg.snap != nil && lg.snapVersion == lg.version {
		g, v := lg.snap, lg.version
		lg.mu.RUnlock()
		return g, v
	}
	lg.mu.RUnlock()

	lg.mu.Lock()
	defer lg.mu.Unlock()
	if lg.snap == nil || lg.snapVersion != lg.version {
		lg.snap = dsd.NewGraph(lg.n, lg.snapshotEdgesLocked())
		lg.snapVersion = lg.version
	}
	return lg.snap, lg.version
}

// Densest returns the standing 2-approximate densest subgraph — the
// k*-core maintained incrementally — at the current version, in O(1): the
// answer is computed once per batch that changes the graph. Vertices is
// sorted ascending and shared by every caller at that version; callers
// must not modify it.
func (lg *Graph) Densest() Densest {
	lg.mu.RLock()
	defer lg.mu.RUnlock()
	d := lg.densest
	d.Version = lg.version
	return d
}

// refreshDensestLocked recomputes the standing answer from the maintained
// core numbers, in O(volume of the k*-core).
func (lg *Graph) refreshDensestLocked() {
	r := lg.dyn.DensestSubgraph()
	lg.densest = Densest{KStar: r.KStar, Vertices: r.Vertices, Density: r.Density}
}

// packKey canonicalizes an edge slot {u, v} (u != v) into one map key.
func packKey(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

func unpackKey(k uint64) (u, v int32) {
	return int32(uint32(k >> 32)), int32(uint32(k))
}

// snapshotEdgesLocked materializes the current edge list from the delta
// log, in canonical order and without duplicates. packKey orders slots as
// the base is ordered, so one merge of the base with the sorted overlay
// keys replaces a map lookup per base edge: a slot in both takes the
// overlay's state, a slot in one alone keeps that one's.
func (lg *Graph) snapshotEdgesLocked() []dsd.Edge {
	keys := make([]uint64, 0, len(lg.delta))
	for k := range lg.delta {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	edges := make([]dsd.Edge, 0, lg.m)
	overlay := func(k uint64) {
		if lg.delta[k] {
			u, v := unpackKey(k)
			edges = append(edges, dsd.Edge{U: u, V: v})
		}
	}
	i := 0
	for _, e := range lg.base {
		be := packKey(e.U, e.V)
		for ; i < len(keys) && keys[i] < be; i++ {
			overlay(keys[i])
		}
		if i < len(keys) && keys[i] == be {
			i++
			if !lg.delta[be] {
				continue
			}
		}
		edges = append(edges, e)
	}
	for _, k := range keys[i:] {
		overlay(k)
	}
	return edges
}

// Validate rejects a malformed batch before anything is applied: unknown
// ops and out-of-range endpoints are errors (self-loops, duplicates and
// absent deletes are well-formed no-ops, not errors).
func (lg *Graph) Validate(batch []Mutation) error {
	for i, mu := range batch {
		if mu.Op != OpInsert && mu.Op != OpDelete {
			return fmt.Errorf("mutation %d: unknown op %d", i, mu.Op)
		}
		if mu.U < 0 || int(mu.U) >= lg.n || mu.V < 0 || int(mu.V) >= lg.n {
			return fmt.Errorf("mutation %d: edge (%d,%d) outside vertex range [0,%d)", i, mu.U, mu.V, lg.n)
		}
	}
	return nil
}

// Apply applies one mutation batch: validation, incremental repair (or the
// full-recompute fallback for oversized batches), delta-log bookkeeping,
// compaction when the log crosses its threshold, and the version publish.
// It must only be called from the graph's single writer goroutine (the
// Writer enforces this at the server boundary; tests may call it directly
// from one goroutine).
func (lg *Graph) Apply(batch []Mutation) (ApplyResult, error) {
	if err := lg.Validate(batch); err != nil {
		return ApplyResult{}, err
	}
	if err := faultinject.Hit(faultinject.SiteLiveApply); err != nil {
		return ApplyResult{}, fmt.Errorf("applying mutation batch: %w", err)
	}

	lg.mu.Lock()
	defer lg.mu.Unlock()

	var res ApplyResult
	start := time.Now()
	threshold := lg.cfg.RecomputeBatch
	if threshold <= 0 {
		threshold = int(max64(4096, lg.m/8))
	}
	if len(batch) >= threshold {
		lg.applyFullLocked(batch, &res)
	} else {
		lg.applyIncrementalLocked(batch, &res)
	}
	res.ApplyMs = msSince(start)

	if !res.Compacted && len(lg.delta) >= lg.cfg.CompactEvery {
		// Compaction is best-effort maintenance: an injected error defers
		// it (the delta log is kept and retriggers next batch); a panic
		// propagates to the writer's containment barrier.
		if err := faultinject.Hit(faultinject.SiteLiveCompact); err == nil {
			cstart := time.Now()
			lg.compactLocked()
			res.Compacted = true
			res.CompactMs = msSince(cstart)
		}
	}

	if res.Inserted+res.Deleted > 0 && !res.Compacted {
		lg.refreshDensestLocked() // a compaction has refreshed it already
	}
	res.KStar, res.CoreSize, res.Density = lg.densest.KStar, len(lg.densest.Vertices), lg.densest.Density
	res.N, res.M = lg.n, lg.m

	if res.Inserted+res.Deleted > 0 {
		lg.snap = nil // the cached snapshot no longer matches the state
		if err := faultinject.Hit(faultinject.SiteLivePublish); err != nil {
			res.Version = lg.version
			return res, fmt.Errorf("publishing version: %w", err)
		}
		if lg.publish == nil {
			lg.localVersion++
			lg.version = lg.localVersion
		} else {
			v, err := lg.publish(lg.statsLocked())
			if err != nil {
				res.Version = lg.version
				return res, fmt.Errorf("publishing version: %w", err)
			}
			lg.version = v
		}
	}
	res.Version = lg.version
	return res, nil
}

// applyIncrementalLocked repairs core numbers per edge via the traversal
// algorithm — O(changed neighborhood) per mutation.
func (lg *Graph) applyIncrementalLocked(batch []Mutation, res *ApplyResult) {
	for _, mu := range batch {
		switch mu.Op {
		case OpInsert:
			applied, changed := lg.dyn.ApplyInsert(mu.U, mu.V)
			if !applied {
				res.Noops++
				continue
			}
			res.Inserted++
			res.Touched += changed
			lg.m++
			if d := lg.dyn.Degree(mu.U); d > lg.maxDeg {
				lg.maxDeg = d
			}
			if d := lg.dyn.Degree(mu.V); d > lg.maxDeg {
				lg.maxDeg = d
			}
			lg.delta[packKey(mu.U, mu.V)] = true
		case OpDelete:
			applied, changed := lg.dyn.ApplyDelete(mu.U, mu.V)
			if !applied {
				res.Noops++
				continue
			}
			res.Deleted++
			res.Touched += changed
			lg.m--
			lg.delta[packKey(mu.U, mu.V)] = false
		}
	}
}

// applyFullLocked is the oversized-batch fallback: mutations land in the
// delta overlay only (presence resolved against the pre-batch state plus
// earlier mutations of the same batch), then the whole structure is rebuilt
// and the decomposition recomputed once.
func (lg *Graph) applyFullLocked(batch []Mutation, res *ApplyResult) {
	batchState := map[uint64]bool{}
	present := func(u, v int32) bool {
		if s, ok := batchState[packKey(u, v)]; ok {
			return s
		}
		return lg.dyn.HasEdge(u, v)
	}
	for _, mu := range batch {
		if mu.U == mu.V {
			res.Noops++
			continue
		}
		switch mu.Op {
		case OpInsert:
			if present(mu.U, mu.V) {
				res.Noops++
				continue
			}
			res.Inserted++
			lg.m++
			batchState[packKey(mu.U, mu.V)] = true
			lg.delta[packKey(mu.U, mu.V)] = true
		case OpDelete:
			if !present(mu.U, mu.V) {
				res.Noops++
				continue
			}
			res.Deleted++
			lg.m--
			batchState[packKey(mu.U, mu.V)] = false
			lg.delta[packKey(mu.U, mu.V)] = false
		}
	}
	lg.compactLocked()
	res.Recomputed = true
	res.Compacted = true
}

// compactLocked rebases the delta log: materialize the current edge list,
// make it the new base, clear the overlay, and recompute the decomposition
// and the standing answer from scratch — the full-recompute fallback that
// heals any state and re-canonicalizes memory after heavy deletion traffic.
func (lg *Graph) compactLocked() {
	edges := lg.snapshotEdgesLocked() // canonical, so it is the new base as is
	g := dsd.NewGraph(lg.n, edges)
	lg.dyn = dsd.NewDynamicGraph(g)
	lg.base = edges
	lg.delta = map[uint64]bool{}
	lg.compactions++
	lg.m = g.M()
	lg.maxDeg = g.Stats().MaxDegree
	lg.snap = nil
	lg.refreshDensestLocked()
}

// recoverRebuild heals the graph after a contained apply panic: the state
// is rebuilt from the delta log (bookkept per successfully applied
// mutation, so at worst the panicking mutation is lost) and the
// decomposition recomputed.
func (lg *Graph) recoverRebuild() {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	lg.compactLocked()
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Errors reported by the mutation path.
var (
	// ErrBacklog rejects an enqueue when the writer queue is full — the
	// write-side overload signal, mapped to a 429 with Retry-After.
	ErrBacklog = errors.New("live: mutation queue full")
	// ErrClosed rejects mutations on a closed live graph (deleted or
	// replaced while requests were in flight).
	ErrClosed = errors.New("live: graph closed")
)
