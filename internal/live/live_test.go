package live

import (
	"math/rand"
	"slices"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/graph"
)

func seedGraph(n int, edges []dsd.Edge) *dsd.Graph {
	return dsd.NewGraph(n, edges)
}

// referenceCores recomputes core numbers from scratch with the serial BZ
// decomposition over the live graph's current snapshot.
func referenceCores(t *testing.T, lg *Graph) []int32 {
	t.Helper()
	snap, _ := lg.Snapshot()
	g := graph.NewUndirected(snap.N(), snap.Edges())
	return core.BZ(g)
}

// assertMatchesReference checks the maintained state against a from-scratch
// recompute: core numbers, k*, k*-core membership and density.
func assertMatchesReference(t *testing.T, lg *Graph) {
	t.Helper()
	want := referenceCores(t, lg)
	lg.mu.RLock()
	got := append([]int32(nil), lg.dyn.CoreNumbers()...)
	lg.mu.RUnlock()
	if len(got) != len(want) {
		t.Fatalf("core slice length: got %d want %d", len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("core[%d]: incremental %d, from-scratch BZ %d", v, got[v], want[v])
		}
	}
	wantK, wantVs := core.KStarCore(want)
	d := lg.Densest()
	if d.KStar != wantK {
		t.Fatalf("k*: incremental %d, from-scratch %d", d.KStar, wantK)
	}
	if len(d.Vertices) != len(wantVs) {
		t.Fatalf("k*-core size: incremental %d, from-scratch %d", len(d.Vertices), len(wantVs))
	}
	snap, _ := lg.Snapshot()
	if wantDensity := snap.SubgraphDensity(d.Vertices); d.Density != wantDensity {
		t.Fatalf("k*-core density: incremental %g, snapshot-induced %g", d.Density, wantDensity)
	}
}

// TestApplyEquivalenceRandomized is the live graph's core contract: randomized
// insert/delete sequences — including deletes of absent edges, self-loops
// and duplicate entries within one batch — must leave the incremental
// state equal to a from-scratch BZ decomposition after every batch. The
// batches also compact and take the full-recompute fallback, and after each
// one the snapshot's edge list must be canonical (strictly ascending,
// u < v) and its CSR equal to a from-scratch build of the current edge set.
func TestApplyEquivalenceRandomized(t *testing.T) {
	const n = 60
	rng := rand.New(rand.NewSource(7))
	want := map[dsd.Edge]bool{} // the current edge set, by canonical slot
	var edges []dsd.Edge
	for u := int32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Intn(100) < 8 {
				edges = append(edges, dsd.Edge{U: u, V: v})
				want[dsd.Edge{U: u, V: v}] = true
			}
		}
	}
	lg := New(seedGraph(n, edges), Config{CompactEvery: 64, RecomputeBatch: 40}, nil)

	var compactions, recomputes int
	for batchNo := 0; batchNo < 40; batchNo++ {
		size := 1 + rng.Intn(24)
		if batchNo%8 == 7 {
			size = 40 // the full-recompute fallback
		}
		batch := make([]Mutation, 0, size)
		for i := 0; i < size; i++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			op := OpInsert
			if rng.Intn(2) == 0 {
				op = OpDelete // often absent: exercised as a no-op
			}
			batch = append(batch, Mutation{Op: op, U: u, V: v})
			if rng.Intn(5) == 0 {
				batch = append(batch, Mutation{Op: op, U: u, V: v}) // duplicate entry
			}
			if rng.Intn(7) == 0 {
				batch = append(batch, Mutation{Op: op, U: u, V: u}) // self-loop
			}
			if u != v {
				want[dsd.Edge{U: min(u, v), V: max(u, v)}] = op == OpInsert
			}
		}
		res, err := lg.Apply(batch)
		if err != nil {
			t.Fatalf("batch %d: %v", batchNo, err)
		}
		if res.Compacted {
			compactions++
		}
		if res.Recomputed {
			recomputes++
		}
		var current []dsd.Edge
		for e, present := range want {
			if present {
				current = append(current, e)
			}
		}
		rebuilt := dsd.NewGraph(n, current)
		lg.mu.RLock()
		merged := lg.snapshotEdgesLocked()
		lg.mu.RUnlock()
		for i := 1; i < len(merged); i++ {
			if a, b := merged[i-1], merged[i]; a.U >= a.V || a.U > b.U || (a.U == b.U && a.V >= b.V) {
				t.Fatalf("batch %d: snapshot edges not canonical at %d: %v then %v", batchNo, i, a, b)
			}
		}
		if !slices.Equal(merged, rebuilt.Edges()) {
			t.Fatalf("batch %d: snapshot has %d edges, the current edge set %d", batchNo, len(merged), rebuilt.M())
		}
		snap := lg.Snapshot2()
		if res.M != lg.M() || snap.M() != rebuilt.M() || res.M != rebuilt.M() {
			t.Fatalf("batch %d: edge-count bookkeeping diverged: res.M=%d lg.M=%d snapshot=%d rebuilt=%d",
				batchNo, res.M, lg.M(), snap.M(), rebuilt.M())
		}
		for v := int32(0); v < n; v++ {
			if !slices.Equal(snap.Neighbors(v), rebuilt.Neighbors(v)) {
				t.Fatalf("batch %d: N(%d) = %v in the snapshot, %v rebuilt", batchNo, v, snap.Neighbors(v), rebuilt.Neighbors(v))
			}
		}
		assertMatchesReference(t, lg)
	}
	if compactions == 0 || recomputes == 0 {
		t.Fatalf("saw %d compactions and %d full recomputes, want both", compactions, recomputes)
	}
}

// Snapshot2 is a test convenience returning just the graph.
func (lg *Graph) Snapshot2() *dsd.Graph {
	g, _ := lg.Snapshot()
	return g
}

// TestApplyFullRecomputeFallback forces the oversized-batch path and checks
// it matches the reference too, flags included.
func TestApplyFullRecomputeFallback(t *testing.T) {
	const n = 40
	rng := rand.New(rand.NewSource(11))
	lg := New(seedGraph(n, []dsd.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}}),
		Config{RecomputeBatch: 8, CompactEvery: 1 << 20}, nil)

	batch := make([]Mutation, 0, 64)
	for i := 0; i < 64; i++ {
		batch = append(batch, Mutation{Op: OpInsert, U: int32(rng.Intn(n)), V: int32(rng.Intn(n))})
	}
	// Insert-then-delete of the same slot within the batch must resolve
	// against mid-batch state, not the pre-batch graph.
	batch = append(batch, Mutation{Op: OpInsert, U: 30, V: 31}, Mutation{Op: OpDelete, U: 31, V: 30})
	res, err := lg.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Recomputed || !res.Compacted {
		t.Fatalf("expected full-recompute fallback, got %+v", res)
	}
	if lg.Snapshot2().HasEdge(30, 31) {
		t.Fatal("insert-then-delete within one batch left the edge present")
	}
	if lg.DeltaLen() != 0 {
		t.Fatalf("fallback should compact the delta log, %d entries remain", lg.DeltaLen())
	}
	assertMatchesReference(t, lg)
}

// TestApplyNoopBatchKeepsVersion checks that a batch of pure no-ops does
// not advance the version (so caches stay warm).
func TestApplyNoopBatchKeepsVersion(t *testing.T) {
	lg := New(seedGraph(4, []dsd.Edge{{U: 0, V: 1}}), Config{}, nil)
	v0 := lg.Version()
	res, err := lg.Apply([]Mutation{
		{Op: OpInsert, U: 0, V: 1}, // already present
		{Op: OpDelete, U: 2, V: 3}, // absent
		{Op: OpInsert, U: 2, V: 2}, // self-loop
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Noops != 3 || res.Inserted != 0 || res.Deleted != 0 {
		t.Fatalf("noop accounting: %+v", res)
	}
	if lg.Version() != v0 {
		t.Fatalf("noop batch advanced version %d -> %d", v0, lg.Version())
	}
}

// TestApplyValidation checks atomic rejection of malformed batches.
func TestApplyValidation(t *testing.T) {
	lg := New(seedGraph(4, nil), Config{}, nil)
	_, err := lg.Apply([]Mutation{{Op: OpInsert, U: 0, V: 1}, {Op: OpInsert, U: 0, V: 99}})
	if err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
	if lg.M() != 0 {
		t.Fatal("rejected batch was partially applied")
	}
	if _, err := lg.Apply([]Mutation{{Op: Op(9), U: 0, V: 1}}); err == nil {
		t.Fatal("unknown op accepted")
	}
}

// TestCompaction checks the delta log is rebased once it crosses the
// threshold and that the compacted state still matches the reference.
func TestCompaction(t *testing.T) {
	const n = 30
	lg := New(seedGraph(n, nil), Config{CompactEvery: 10, RecomputeBatch: 1 << 20}, nil)
	sawCompaction := false
	for i := 0; i < 40; i++ {
		u, v := int32(i%n), int32((i*7+1)%n)
		if u == v {
			continue
		}
		res, err := lg.Apply([]Mutation{{Op: OpInsert, U: u, V: v}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Compacted {
			sawCompaction = true
			if lg.DeltaLen() != 0 {
				t.Fatalf("delta log not cleared by compaction: %d", lg.DeltaLen())
			}
		}
	}
	if !sawCompaction {
		t.Fatal("40 inserts with CompactEvery=10 never compacted")
	}
	assertMatchesReference(t, lg)
}

// TestSnapshotImmutability checks copy-on-write: a snapshot taken before a
// mutation is not changed by it, and versions advance with the state.
func TestSnapshotImmutability(t *testing.T) {
	lg := New(seedGraph(5, []dsd.Edge{{U: 0, V: 1}}), Config{}, nil)
	before, v0 := lg.Snapshot()
	if _, err := lg.Apply([]Mutation{{Op: OpInsert, U: 1, V: 2}}); err != nil {
		t.Fatal(err)
	}
	after, v1 := lg.Snapshot()
	if v1 == v0 {
		t.Fatal("version did not advance after a structural change")
	}
	if before.HasEdge(1, 2) {
		t.Fatal("mutation leaked into a previously taken snapshot")
	}
	if !after.HasEdge(1, 2) {
		t.Fatal("new snapshot missing the inserted edge")
	}
	// Snapshot caching: same version, same materialization.
	again, _ := lg.Snapshot()
	if again != after {
		t.Fatal("repeated Snapshot at one version rebuilt the graph")
	}
}

// TestPublishCallback checks the registry-coupling contract: publish runs
// exactly once per structural batch with the post-batch stats, and its
// returned version becomes the graph's.
func TestPublishCallback(t *testing.T) {
	var calls int
	var lastStats dsd.Stats
	lg := New(seedGraph(4, nil), Config{}, func(stats dsd.Stats) (int64, error) {
		calls++
		lastStats = stats
		return int64(100 + calls), nil
	})
	res, err := lg.Apply([]Mutation{{Op: OpInsert, U: 0, V: 1}, {Op: OpInsert, U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || res.Version != 101 || lg.Version() != 101 {
		t.Fatalf("publish coupling: calls=%d res.Version=%d lg.Version=%d", calls, res.Version, lg.Version())
	}
	if lastStats.M != 2 || lastStats.N != 4 {
		t.Fatalf("published stats: %+v", lastStats)
	}
	if _, err := lg.Apply([]Mutation{{Op: OpInsert, U: 0, V: 1}}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatal("noop batch reached the publish callback")
	}
}
