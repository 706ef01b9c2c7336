package maxflow

import (
	"math"
	"math/rand"
	"testing"
)

func TestSimplePath(t *testing.T) {
	// s -> a -> t with bottleneck 3.
	nw := NewNetwork(3)
	nw.AddArc(0, 1, 5)
	nw.AddArc(1, 2, 3)
	if f := nw.Solve(0, 2); math.Abs(f-3) > Eps {
		t.Fatalf("flow = %v, want 3", f)
	}
}

func TestParallelPaths(t *testing.T) {
	// Two disjoint unit paths.
	nw := NewNetwork(4)
	nw.AddArc(0, 1, 1)
	nw.AddArc(1, 3, 1)
	nw.AddArc(0, 2, 1)
	nw.AddArc(2, 3, 1)
	if f := nw.Solve(0, 3); math.Abs(f-2) > Eps {
		t.Fatalf("flow = %v, want 2", f)
	}
}

func TestClassicCLRSExample(t *testing.T) {
	// The CLRS flow network; max flow 23.
	nw := NewNetwork(6)
	s, v1, v2, v3, v4, tt := int32(0), int32(1), int32(2), int32(3), int32(4), int32(5)
	nw.AddArc(s, v1, 16)
	nw.AddArc(s, v2, 13)
	nw.AddArc(v1, v3, 12)
	nw.AddArc(v2, v1, 4)
	nw.AddArc(v2, v4, 14)
	nw.AddArc(v3, v2, 9)
	nw.AddArc(v3, tt, 20)
	nw.AddArc(v4, v3, 7)
	nw.AddArc(v4, tt, 4)
	if f := nw.Solve(s, tt); math.Abs(f-23) > Eps {
		t.Fatalf("flow = %v, want 23", f)
	}
}

func TestDisconnected(t *testing.T) {
	nw := NewNetwork(4)
	nw.AddArc(0, 1, 5)
	nw.AddArc(2, 3, 5)
	if f := nw.Solve(0, 3); f > Eps {
		t.Fatalf("flow = %v, want 0", f)
	}
}

func TestNegativeCapacityClamped(t *testing.T) {
	nw := NewNetwork(2)
	nw.AddArc(0, 1, -3)
	if f := nw.Solve(0, 1); f > Eps {
		t.Fatalf("flow = %v, want 0", f)
	}
}

func TestMinCutSourceSide(t *testing.T) {
	// Bottleneck between layer 1 and layer 2.
	nw := NewNetwork(4)
	nw.AddArc(0, 1, 10)
	nw.AddArc(1, 2, 1)
	nw.AddArc(2, 3, 10)
	nw.Solve(0, 3)
	side := nw.MinCutSource(0)
	if len(side) != 2 {
		t.Fatalf("source side = %v, want {0,1}", side)
	}
	seen := map[int32]bool{}
	for _, v := range side {
		seen[v] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("source side = %v", side)
	}
}

// TestMaxFlowMinCutDuality checks flow value == cut capacity on random
// networks (the certificate Dinic's must satisfy).
func TestMaxFlowMinCutDuality(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(16)
		type capArc struct {
			u, v int32
			c    float64
		}
		var arcs []capArc
		nw := NewNetwork(n)
		for i := 0; i < n*3; i++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if u == v {
				continue
			}
			c := float64(1 + rng.Intn(10))
			arcs = append(arcs, capArc{u, v, c})
			nw.AddArc(u, v, c)
		}
		s, tt := int32(0), int32(n-1)
		flow := nw.Solve(s, tt)
		side := nw.MinCutSource(s)
		inSide := make([]bool, n)
		for _, v := range side {
			inSide[v] = true
		}
		if inSide[tt] {
			t.Fatalf("trial %d: sink on source side", trial)
		}
		var cut float64
		for _, a := range arcs {
			if inSide[a.u] && !inSide[a.v] {
				cut += a.c
			}
		}
		if math.Abs(flow-cut) > 1e-6 {
			t.Fatalf("trial %d: flow %v != cut %v", trial, flow, cut)
		}
	}
}

func TestFractionalCapacities(t *testing.T) {
	nw := NewNetwork(3)
	nw.AddArc(0, 1, 0.75)
	nw.AddArc(1, 2, 1.25)
	if f := nw.Solve(0, 2); math.Abs(f-0.75) > Eps {
		t.Fatalf("flow = %v, want 0.75", f)
	}
}
