package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refAdjacency is the naive reference builder: for each pair (u, v) of
// edges it adds v to u's set when fwd is set and u to v's set when bwd is
// set, drops self-loops, and sorts each set.
func refAdjacency(n int, edges []Edge, fwd, bwd bool) [][]int32 {
	sets := make([]map[int32]bool, n)
	for v := range sets {
		sets[v] = map[int32]bool{}
	}
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		if fwd {
			sets[e.U][e.V] = true
		}
		if bwd {
			sets[e.V][e.U] = true
		}
	}
	lists := make([][]int32, n)
	for v, set := range sets {
		for u := range set {
			lists[v] = append(lists[v], u)
		}
		slices.Sort(lists[v])
	}
	return lists
}

// sameAdjacency reports the first vertex whose list, or degree, differs
// from the reference, and checks the pair count m against it.
func sameAdjacency(n int, m int64, deg func(int32) int32, list func(int32) []int32, want [][]int32, pairsPerEdge int64) error {
	if len(want) != n {
		return fmt.Errorf("n = %d, want %d", n, len(want))
	}
	var total int64
	for v := int32(0); int(v) < n; v++ {
		if got := list(v); !slices.Equal(got, want[v]) || int(deg(v)) != len(want[v]) {
			return fmt.Errorf("vertex %d: list %v (degree %d), want %v", v, got, deg(v), want[v])
		}
		total += int64(len(want[v]))
	}
	if m*pairsPerEdge != total {
		return fmt.Errorf("m = %d for %d list entries", m, total)
	}
	return nil
}

// checkAgainstReference builds both graph kinds from edges and compares
// them, their Reverse and Underlying, with refAdjacency.
func checkAgainstReference(n int, edges []Edge) error {
	g := NewUndirected(n, edges)
	both := refAdjacency(n, edges, true, true)
	if err := sameAdjacency(g.N(), g.M(), g.Degree, g.Neighbors, both, 2); err != nil {
		return fmt.Errorf("undirected: %w", err)
	}
	d := NewDirected(n, edges)
	out, in := refAdjacency(n, edges, true, false), refAdjacency(n, edges, false, true)
	if err := sameAdjacency(d.N(), d.M(), d.OutDegree, d.OutNeighbors, out, 1); err != nil {
		return fmt.Errorf("directed out-lists: %w", err)
	}
	if err := sameAdjacency(d.N(), d.M(), d.InDegree, d.InNeighbors, in, 1); err != nil {
		return fmt.Errorf("directed in-lists: %w", err)
	}
	r := d.Reverse()
	if err := sameAdjacency(r.N(), r.M(), r.OutDegree, r.OutNeighbors, in, 1); err != nil {
		return fmt.Errorf("reverse out-lists: %w", err)
	}
	if err := sameAdjacency(r.N(), r.M(), r.InDegree, r.InNeighbors, out, 1); err != nil {
		return fmt.Errorf("reverse in-lists: %w", err)
	}
	u := d.Underlying()
	if err := sameAdjacency(u.N(), u.M(), u.Degree, u.Neighbors, both, 2); err != nil {
		return fmt.Errorf("underlying: %w", err)
	}
	return nil
}

// TestBuildMatchesReference feeds both builders shuffled edge lists with
// duplicates, self-loops and both orientations of some edges.
func TestBuildMatchesReference(t *testing.T) {
	if err := checkAgainstReference(0, nil); err != nil {
		t.Fatalf("empty graph: %v", err)
	}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		var edges []Edge
		for i := rng.Intn(4 * n); i > 0; i-- {
			e := Edge{int32(rng.Intn(n)), int32(rng.Intn(n))}
			edges = append(edges, e)
			switch rng.Intn(4) {
			case 0:
				edges = append(edges, e) // duplicate
			case 1:
				edges = append(edges, Edge{e.V, e.U}) // other orientation
			case 2:
				edges = append(edges, Edge{e.U, e.U}) // self-loop
			}
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		if err := checkAgainstReference(n, edges); err != nil {
			t.Fatalf("seed %d (n=%d, %d pairs): %v", seed, n, len(edges), err)
		}
	}
}
