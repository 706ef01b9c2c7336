package graph

import (
	"math/rand"
	"testing"
)

func TestOutArcRangeAndHeads(t *testing.T) {
	d := NewDirected(4, []Edge{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	lo, hi := d.OutArcRange(0)
	if hi-lo != 2 {
		t.Fatalf("vertex 0 arc range size %d, want 2", hi-lo)
	}
	heads := map[int32]bool{}
	for a := lo; a < hi; a++ {
		heads[d.ArcHead(a)] = true
	}
	if !heads[1] || !heads[2] {
		t.Fatalf("heads = %v", heads)
	}
}

func TestArcTails(t *testing.T) {
	d := NewDirected(4, []Edge{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	tails := d.ArcTails()
	if int64(len(tails)) != d.M() {
		t.Fatalf("len = %d", len(tails))
	}
	for u := int32(0); int(u) < d.N(); u++ {
		lo, hi := d.OutArcRange(u)
		for a := lo; a < hi; a++ {
			if tails[a] != u {
				t.Fatalf("tail of arc %d = %d, want %d", a, tails[a], u)
			}
		}
	}
}

func TestInArcIDsConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(60)
		var arcs []Edge
		for i := 0; i < n*4; i++ {
			arcs = append(arcs, Edge{int32(rng.Intn(n)), int32(rng.Intn(n))})
		}
		d := NewDirected(n, arcs)
		ids := d.InArcIDs()
		tails := d.ArcTails()
		for v := int32(0); int(v) < d.N(); v++ {
			ins := d.InNeighbors(v)
			lo := dInOff(d, v)
			for i, u := range ins {
				a := ids[lo+int64(i)]
				if tails[a] != u {
					t.Fatalf("in-arc of %d from %d maps to arc with tail %d", v, u, tails[a])
				}
				if d.ArcHead(a) != v {
					t.Fatalf("in-arc of %d maps to arc with head %d", v, d.ArcHead(a))
				}
			}
		}
		// Every arc id must appear exactly once.
		seen := make([]bool, d.M())
		for _, a := range ids {
			if seen[a] {
				t.Fatal("arc id duplicated in InArcIDs")
			}
			seen[a] = true
		}
	}
}

// dInOff exposes the in-CSR offset for tests without widening the API.
func dInOff(d *Directed, v int32) int64 {
	return d.in.off[v]
}
