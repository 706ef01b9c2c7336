package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func triangleWithTail() *Undirected {
	// 0-1, 1-2, 2-0 triangle; 3 hangs off 0.
	return NewUndirected(4, []Edge{{0, 1}, {1, 2}, {2, 0}, {0, 3}})
}

func TestNewUndirectedBasics(t *testing.T) {
	g := triangleWithTail()
	if g.N() != 4 {
		t.Fatalf("N = %d", g.N())
	}
	if g.M() != 4 {
		t.Fatalf("M = %d", g.M())
	}
	wantDeg := []int32{3, 2, 2, 1}
	for v, w := range wantDeg {
		if d := g.Degree(int32(v)); d != w {
			t.Fatalf("deg(%d) = %d, want %d", v, d, w)
		}
	}
}

func TestDuplicateAndSelfLoopEdgesDropped(t *testing.T) {
	g := NewUndirected(3, []Edge{{0, 1}, {1, 0}, {0, 1}, {2, 2}, {1, 2}})
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2 (dup and loop dropped)", g.M())
	}
	if g.Degree(2) != 1 {
		t.Fatalf("deg(2) = %d, want 1", g.Degree(2))
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := NewUndirected(5, []Edge{{0, 4}, {0, 2}, {0, 1}, {0, 3}})
	nb := g.Neighbors(0)
	for i := 1; i < len(nb); i++ {
		if nb[i-1] >= nb[i] {
			t.Fatalf("neighbors not sorted: %v", nb)
		}
	}
}

func TestHasEdge(t *testing.T) {
	g := triangleWithTail()
	cases := []struct {
		u, v int32
		want bool
	}{{0, 1, true}, {1, 0, true}, {0, 3, true}, {1, 3, false}, {2, 3, false}}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Fatalf("HasEdge(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestOutOfRangeEdgePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewUndirected(2, []Edge{{0, 2}})
}

func TestEdgesRoundTrip(t *testing.T) {
	g := triangleWithTail()
	es := g.Edges()
	if len(es) != 4 {
		t.Fatalf("Edges() returned %d edges", len(es))
	}
	g2 := NewUndirected(g.N(), es)
	if g2.M() != g.M() {
		t.Fatalf("round trip lost edges: %d vs %d", g2.M(), g.M())
	}
	for v := int32(0); int(v) < g.N(); v++ {
		if g.Degree(v) != g2.Degree(v) {
			t.Fatalf("degree mismatch at %d", v)
		}
	}
}

func TestDensity(t *testing.T) {
	g := triangleWithTail()
	if got := g.Density(); got != 1.0 {
		t.Fatalf("density = %v, want 1.0 (4 edges / 4 vertices)", got)
	}
	empty := NewUndirected(0, nil)
	if empty.Density() != 0 {
		t.Fatal("empty graph density should be 0")
	}
}

func TestInduced(t *testing.T) {
	g := triangleWithTail()
	sub, orig := g.Induced([]int32{0, 1, 2})
	if sub.N() != 3 || sub.M() != 3 {
		t.Fatalf("induced triangle: n=%d m=%d", sub.N(), sub.M())
	}
	if len(orig) != 3 {
		t.Fatalf("mapping length %d", len(orig))
	}
	// Duplicates ignored.
	sub2, _ := g.Induced([]int32{0, 0, 1})
	if sub2.N() != 2 || sub2.M() != 1 {
		t.Fatalf("induced with dup: n=%d m=%d", sub2.N(), sub2.M())
	}
}

func TestInducedDensityMatchesInduced(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(30)
		var edges []Edge
		for i := 0; i < n*3; i++ {
			edges = append(edges, Edge{int32(rng.Intn(n)), int32(rng.Intn(n))})
		}
		g := NewUndirected(n, edges)
		var set []int32
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				set = append(set, int32(v))
			}
		}
		if len(set) == 0 {
			continue
		}
		sub, _ := g.Induced(set)
		want := float64(sub.M()) / float64(sub.N())
		if got := g.InducedDensity(set); got != want {
			t.Fatalf("InducedDensity = %v, want %v", got, want)
		}
	}
}

func TestInducedDensityIgnoresDuplicates(t *testing.T) {
	g := triangleWithTail()
	a := g.InducedDensity([]int32{0, 1, 2})
	b := g.InducedDensity([]int32{0, 1, 2, 2, 0})
	if a != b {
		t.Fatalf("duplicates changed density: %v vs %v", a, b)
	}
}

func TestMaxDegreeAndDegrees(t *testing.T) {
	g := triangleWithTail()
	if g.MaxDegree() != 3 {
		t.Fatalf("max degree = %d", g.MaxDegree())
	}
	ds := g.Degrees()
	if len(ds) != 4 || ds[0] != 3 {
		t.Fatalf("degrees = %v", ds)
	}
}

// Property: for any random edge list, total degree equals 2M and neighbor
// lists are symmetric.
func TestUndirectedInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		var edges []Edge
		for i := 0; i < rng.Intn(200); i++ {
			edges = append(edges, Edge{int32(rng.Intn(n)), int32(rng.Intn(n))})
		}
		g := NewUndirected(n, edges)
		var degSum int64
		for v := int32(0); int(v) < n; v++ {
			degSum += int64(g.Degree(v))
			for _, u := range g.Neighbors(v) {
				if !g.HasEdge(u, v) {
					return false
				}
				if u == v {
					return false // self loop survived
				}
			}
		}
		return degSum == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
