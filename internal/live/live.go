package live

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro"
	"repro/internal/faultinject"
)

// Config tunes one live graph. The zero value is a sensible serving setup.
type Config struct {
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
	// Compacted is never set: live graphs do not compact. It stays in the
	// wire format because the repository benchmark (perfbench) decodes it,
	// and goes when that benchmark drops its live.compactions row.
	Compacted bool `json:"compacted,omitempty"`
	// The standing 2-approximate densest-subgraph answer after the batch.
	KStar    int32   `json:"k_star"`
	CoreSize int     `json:"core_size"`
	Density  float64 `json:"density"`
	// Post-batch graph size.
	N int   `json:"n"`
	M int64 `json:"m"`
	// ApplyMs is the wall time of the batch application, repair or
	// full recompute included.
	ApplyMs float64 `json:"apply_ms"`
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
// batch. The live graph heals itself with a full rebuild over its edge
// store before the error is returned, so subsequent batches see consistent
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

	mu sync.RWMutex
	// dyn is the graph's only edge store: sorted adjacency plus the
	// maintained core numbers. Snapshots are built from it.
	dyn *dsd.DynamicGraph
	// densest is the k*-core answer of the current state, refreshed by
	// every batch that changes the graph; Densest pairs it with version.
	densest Densest
	n       int
	m       int64
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

// Stats summarizes the current graph.
func (lg *Graph) Stats() dsd.Stats {
	lg.mu.RLock()
	defer lg.mu.RUnlock()
	return lg.statsLocked()
}

// statsLocked scans the store for the maximum degree, O(n): the same order
// as the k*-core refresh every changing batch already pays.
func (lg *Graph) statsLocked() dsd.Stats {
	s := dsd.Stats{N: lg.n, M: lg.m}
	for v := range int32(lg.n) {
		s.MaxDegree = max(s.MaxDegree, lg.dyn.Degree(v))
	}
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
		lg.snap = lg.dyn.Snapshot()
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
// full-recompute fallback for oversized batches), and the version publish.
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
		threshold = int(max(4096, lg.m/8))
	}
	lg.applyLocked(batch, len(batch) >= threshold, &res)
	res.ApplyMs = msSince(start)

	if res.Inserted+res.Deleted > 0 && !res.Recomputed {
		lg.refreshDensestLocked() // a rebuild has refreshed it already
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

// applyLocked applies the batch to the edge store. Each mutation resolves
// against the store as the batch has left it, so an insert and a delete
// of one slot in the same batch cancel. Normally every edge change is
// repaired by the traversal algorithm, O(changed neighborhood) per
// mutation; an oversized batch (full) edits the store unrepaired and
// rebuilds the decomposition once at the end.
func (lg *Graph) applyLocked(batch []Mutation, full bool, res *ApplyResult) {
	for _, mu := range batch {
		insert := mu.Op == OpInsert
		var applied bool
		var changed int
		switch {
		case full:
			applied = lg.dyn.SetEdge(mu.U, mu.V, insert)
		case insert:
			applied, changed = lg.dyn.ApplyInsert(mu.U, mu.V)
		default:
			applied, changed = lg.dyn.ApplyDelete(mu.U, mu.V)
		}
		switch {
		case !applied:
			res.Noops++
		case insert:
			res.Inserted++
			lg.m++
		default:
			res.Deleted++
			lg.m--
		}
		res.Touched += changed
	}
	if full {
		lg.rebuildLocked()
		res.Recomputed = true
	}
}

// rebuildLocked reseeds the store from a snapshot of itself, which runs
// BZ over the snapshot, recounts m from it and refreshes the standing
// answer. It closes the oversized-batch fallback and heals the graph after
// a contained apply panic, when a batch died mid-way.
func (lg *Graph) rebuildLocked() {
	g := lg.dyn.Snapshot()
	lg.dyn = dsd.NewDynamicGraph(g)
	lg.m = g.M()
	lg.snap = nil
	lg.refreshDensestLocked()
}

// recoverRebuild heals the graph after a contained apply panic: the store
// keeps every mutation applied before the panic, and the decomposition,
// edge count and answer are rebuilt over it.
func (lg *Graph) recoverRebuild() {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	lg.rebuildLocked()
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
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
