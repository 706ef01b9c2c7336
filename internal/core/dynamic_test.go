package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

func checkAgainstRecompute(t *testing.T, d *Dynamic) {
	t.Helper()
	want := BZ(d.Graph())
	got := d.CoreNumbers()
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: maintained core %d, recomputed %d", v, got[v], want[v])
		}
	}
}

func TestDynamicInsertSimple(t *testing.T) {
	// Start with a path 0-1-2-3, then close it into a cycle, then add a
	// chord: cores go 1 -> 2 and the triangle bumps nothing further until
	// the 4th chord closes K4.
	g := graph.NewUndirected(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	d := NewDynamic(g)
	d.InsertEdge(3, 0)
	checkAgainstRecompute(t, d)
	if d.CoreNumbers()[0] != 2 {
		t.Fatalf("cycle core = %d, want 2", d.CoreNumbers()[0])
	}
	d.InsertEdge(0, 2)
	checkAgainstRecompute(t, d)
	d.InsertEdge(1, 3)
	checkAgainstRecompute(t, d)
	if d.CoreNumbers()[0] != 3 {
		t.Fatalf("K4 core = %d, want 3", d.CoreNumbers()[0])
	}
}

func TestDynamicDeleteSimple(t *testing.T) {
	// K4 minus one edge: cores drop from 3 to 2.
	var edges []graph.Edge
	for i := int32(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			edges = append(edges, graph.Edge{U: i, V: j})
		}
	}
	d := NewDynamic(graph.NewUndirected(4, edges))
	d.DeleteEdge(0, 1)
	checkAgainstRecompute(t, d)
	for v, k := range d.CoreNumbers() {
		if k != 2 {
			t.Fatalf("vertex %d core = %d, want 2", v, k)
		}
	}
}

func TestDynamicNoOps(t *testing.T) {
	g := graph.NewUndirected(3, []graph.Edge{{U: 0, V: 1}})
	d := NewDynamic(g)
	d.InsertEdge(0, 1) // duplicate
	d.InsertEdge(2, 2) // self loop
	d.DeleteEdge(1, 2) // absent
	checkAgainstRecompute(t, d)
	if d.Graph().M() != 1 {
		t.Fatalf("m = %d, want 1", d.Graph().M())
	}
}

func TestDynamicOutOfRangePanics(t *testing.T) {
	d := NewDynamic(graph.NewUndirected(2, nil))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	d.InsertEdge(0, 5)
}

// TestDynamicRandomInsertions replays a random edge sequence, checking the
// maintained cores against a full recomputation after every insertion.
func TestDynamicRandomInsertions(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(30)
		d := NewDynamic(graph.NewUndirected(n, nil))
		for i := 0; i < 3*n; i++ {
			d.InsertEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
			want := BZ(d.Graph())
			for v := range want {
				if d.CoreNumbers()[v] != want[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// checkStore asserts the adjacency invariants the single edge store relies
// on: every neighbor list is strictly ascending and free of self-loops, and
// {u, v} is listed at u exactly when it is listed at v.
func checkStore(t *testing.T, d *Dynamic) {
	t.Helper()
	for u, nb := range d.adj {
		for i, v := range nb {
			if v == int32(u) || (i > 0 && nb[i-1] >= v) {
				t.Fatalf("N(%d) = %v is not strictly ascending and loop-free", u, nb)
			}
			if !d.HasEdge(v, int32(u)) {
				t.Fatalf("arc %d->%d has no reverse arc", u, v)
			}
		}
	}
}

// TestDynamicRandomMixed interleaves insertions and deletions: small
// random graphs under quick.Check, then a planted clique in a Chung–Lu
// graph, whose deep cores make the repair cascade, under thousands of
// mixed updates that also dismantle and regrow the clique.
func TestDynamicRandomMixed(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(25)
		var edges []graph.Edge
		for i := 0; i < n; i++ {
			edges = append(edges, graph.Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))})
		}
		d := NewDynamic(graph.NewUndirected(n, edges))
		for i := 0; i < 4*n; i++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if rng.Intn(3) == 0 {
				d.DeleteEdge(u, v)
			} else {
				d.InsertEdge(u, v)
			}
			want := BZ(d.Graph())
			for w := range want {
				if d.CoreNumbers()[w] != want[w] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}

	g, clique := gen.PlantClique(gen.ChungLu(300, 1200, 2.3, 41), 16, 42)
	d := NewDynamic(g)
	rng := rand.New(rand.NewSource(43))
	n := int32(g.N())
	for i := 0; i < 3000; i++ {
		var u, v int32
		if rng.Intn(2) == 0 {
			u, v = clique[rng.Intn(len(clique))], clique[rng.Intn(len(clique))]
		} else {
			u, v = rng.Int31n(n), rng.Int31n(n)
		}
		if rng.Intn(2) == 0 {
			d.DeleteEdge(u, v)
		} else {
			d.InsertEdge(u, v)
		}
		checkAgainstRecompute(t, d)
		checkStore(t, d)
	}
}

// TestDynamicEpochWrap runs updates across the repair-mark counter's
// wrap-around: marks left by the first updates carry the small epochs the
// counter reaches again after the wrap, and must not read as current.
func TestDynamicEpochWrap(t *testing.T) {
	d := NewDynamic(gen.ChungLu(200, 800, 2.3, 44))
	rng := rand.New(rand.NewSource(45))
	for i := 0; i < 600; i++ {
		if i == 300 {
			d.epoch = math.MaxUint32 - 20
		}
		u, v := rng.Int31n(200), rng.Int31n(200)
		if i%3 == 0 {
			d.DeleteEdge(u, v)
		} else {
			d.InsertEdge(u, v)
		}
		checkAgainstRecompute(t, d)
	}
	if d.epoch > 600 {
		t.Fatalf("epoch = %d, want it wrapped", d.epoch)
	}
}

func TestDynamicKStarCoreTracksDensestApproximation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 60
	d := NewDynamic(graph.NewUndirected(n, nil))
	// Grow a clique on vertices 0..9 amid noise; the k*-core must end on
	// the clique.
	for i := 0; i < 150; i++ {
		d.InsertEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	for i := int32(0); i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			d.InsertEdge(i, j)
		}
	}
	k, core := d.KStarCore()
	wantK, wantCore := KStarCore(BZ(d.Graph()))
	if k != wantK || len(core) != len(wantCore) {
		t.Fatalf("maintained k*=%d |core|=%d, recomputed k*=%d |core|=%d", k, len(core), wantK, len(wantCore))
	}
	if k < 9 {
		t.Fatalf("k* = %d, want >= 9 (the grown clique)", k)
	}
}
