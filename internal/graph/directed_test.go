package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// paperFig1b builds the directed example of the paper's Fig. 1(b) core:
// S = {4, 5} fully linked to T = {2, 3} (density 2), plus a couple of
// stray arcs.
func paperFig1b() *Directed {
	return NewDirected(6, []Edge{
		{4, 2}, {4, 3}, {5, 2}, {5, 3}, // the dense S x T block
		{0, 1}, {1, 2},
	})
}

func TestNewDirectedBasics(t *testing.T) {
	d := paperFig1b()
	if d.N() != 6 || d.M() != 6 {
		t.Fatalf("n=%d m=%d", d.N(), d.M())
	}
	if d.OutDegree(4) != 2 || d.InDegree(2) != 3 {
		t.Fatalf("out(4)=%d in(2)=%d", d.OutDegree(4), d.InDegree(2))
	}
}

func TestDirectedDuplicatesAndLoopsDropped(t *testing.T) {
	d := NewDirected(3, []Edge{{0, 1}, {0, 1}, {1, 1}, {1, 2}})
	if d.M() != 2 {
		t.Fatalf("M = %d, want 2", d.M())
	}
}

func TestAntiparallelArcsAreDistinct(t *testing.T) {
	d := NewDirected(2, []Edge{{0, 1}, {1, 0}})
	if d.M() != 2 {
		t.Fatalf("M = %d, want 2 (antiparallel arcs are distinct)", d.M())
	}
}

func TestHasArcDirectionality(t *testing.T) {
	d := NewDirected(2, []Edge{{0, 1}})
	if !d.HasArc(0, 1) || d.HasArc(1, 0) {
		t.Fatal("HasArc must respect direction")
	}
}

func TestEdgesST(t *testing.T) {
	d := paperFig1b()
	if got := d.EdgesST([]int32{4, 5}, []int32{2, 3}); got != 4 {
		t.Fatalf("E(S,T) = %d, want 4", got)
	}
	// Duplicates in the sets must not double count.
	if got := d.EdgesST([]int32{4, 4, 5}, []int32{2, 3, 3}); got != 4 {
		t.Fatalf("E with dups = %d, want 4", got)
	}
}

func TestDensitySTPaperExample(t *testing.T) {
	d := paperFig1b()
	got := d.DensityST([]int32{4, 5}, []int32{2, 3})
	if math.Abs(got-2.0) > 1e-12 {
		t.Fatalf("ρ(S,T) = %v, want 2.0 (the paper's Fig. 1(b) value)", got)
	}
	if d.DensityST(nil, []int32{2}) != 0 {
		t.Fatal("empty S must give density 0")
	}
}

func TestDensitySTOverlappingSets(t *testing.T) {
	// S = T reduces to undirected-style density (paper's §I remark).
	d := NewDirected(3, []Edge{{0, 1}, {1, 2}, {2, 0}})
	got := d.DensityST([]int32{0, 1, 2}, []int32{0, 1, 2})
	if math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("ρ(V,V) = %v, want 3/3 = 1", got)
	}
}

func TestInducedDirected(t *testing.T) {
	d := paperFig1b()
	sub, _ := d.Induced([]int32{0, 1, 2})
	if sub.M() != 2 { // 0->1, 1->2
		t.Fatalf("induced M = %d, want 2", sub.M())
	}
}

func TestReverse(t *testing.T) {
	d := paperFig1b()
	r := d.Reverse()
	if r.M() != d.M() || r.N() != d.N() {
		t.Fatal("reverse changed size")
	}
	for u := int32(0); int(u) < d.N(); u++ {
		for _, v := range d.OutNeighbors(u) {
			if !r.HasArc(v, u) {
				t.Fatalf("arc %d->%d missing in reverse", v, u)
			}
		}
		if d.OutDegree(u) != r.InDegree(u) || d.InDegree(u) != r.OutDegree(u) {
			t.Fatalf("degrees not swapped at %d", u)
		}
	}
}

func TestUnderlying(t *testing.T) {
	d := NewDirected(3, []Edge{{0, 1}, {1, 0}, {1, 2}})
	g := d.Underlying()
	if g.M() != 2 { // antiparallel pair merges
		t.Fatalf("underlying M = %d, want 2", g.M())
	}
}

func TestDirectedInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		var arcs []Edge
		for i := 0; i < rng.Intn(200); i++ {
			arcs = append(arcs, Edge{int32(rng.Intn(n)), int32(rng.Intn(n))})
		}
		d := NewDirected(n, arcs)
		var outSum, inSum int64
		for v := int32(0); int(v) < n; v++ {
			outSum += int64(d.OutDegree(v))
			inSum += int64(d.InDegree(v))
			// in/out adjacency must agree arc by arc
			for _, u := range d.InNeighbors(v) {
				if !d.HasArc(u, v) {
					return false
				}
			}
		}
		return outSum == d.M() && inSum == d.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestArcsRoundTrip(t *testing.T) {
	d := paperFig1b()
	d2 := NewDirected(d.N(), d.Arcs())
	if d2.M() != d.M() {
		t.Fatal("arc round trip lost arcs")
	}
	for u := int32(0); int(u) < d.N(); u++ {
		if d.OutDegree(u) != d2.OutDegree(u) {
			t.Fatalf("out-degree mismatch at %d", u)
		}
	}
}
