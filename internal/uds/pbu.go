package uds

import (
	"context"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/solver"
)

// PBU is the parallel batch-peeling 2(1+ε)-approximation of Bahmani,
// Kumar & Vassilvitskii: each round removes *every* vertex whose current
// degree is at most 2(1+ε) times the current average density, and the best
// intermediate subgraph is returned. The paper runs ε = 0.5.
//
// The implementation is faithful to the streaming/MapReduce execution
// model the algorithm was designed for: a round does not update degrees
// incrementally but recomputes them by a full pass over the surviving edge
// list, then materializes the next round's edge list — the per-round
// synchronization and data-rewriting cost the paper's Exp-1 attributes
// PBU's slowness to. Rounds are O(log n / log(1+ε)). ε is opts.Epsilon.
func PBU(_ context.Context, g *graph.Undirected, opts solver.Params) (solver.Result, error) {
	eps, p := opts.Epsilon, opts.Workers
	n := g.N()
	if n == 0 {
		return solver.Result{Algorithm: "PBU"}, nil
	}
	if eps <= 0 {
		eps = 0.5
	}
	edges := g.Edges()
	alive := make([]bool, n)
	for v := range alive {
		alive[v] = true
	}
	aliveCount := int64(n)
	// Vertices with degree zero never survive the first threshold but do
	// dilute the initial density; Bahmani et al. define the stream over
	// the edge set, so isolated vertices are not part of the instance.
	deg := make([]int32, n)

	bestDensity := -1.0
	var best []int32
	rounds := 0
	for aliveCount > 0 && len(edges) > 0 {
		rounds++
		// Pass 1 (map/reduce): recompute degrees from the edge stream.
		degAtomic := make([]atomic.Int32, n)
		parallel.For(len(edges), p, func(i int) {
			degAtomic[edges[i].U].Add(1)
			degAtomic[edges[i].V].Add(1)
		})
		parallel.For(n, p, func(v int) {
			deg[v] = degAtomic[v].Load()
		})
		density := float64(len(edges)) / float64(aliveCount)
		if density > bestDensity {
			bestDensity = density
			best = best[:0]
			for v := 0; v < n; v++ {
				if alive[v] {
					best = append(best, int32(v))
				}
			}
		}
		// Pass 2: batch-remove everything at or below the threshold.
		threshold := int32(2 * (1 + eps) * density)
		removed := int64(0)
		for v := 0; v < n; v++ {
			if alive[v] && deg[v] <= threshold {
				alive[v] = false
				removed++
			}
		}
		if removed == 0 {
			break // all survivors exceed 2(1+ε)·avg: cannot happen; defensive
		}
		aliveCount -= removed
		// Pass 3 (rewrite the stream): materialize the surviving edges.
		next := make([]graph.Edge, 0, len(edges))
		for _, e := range edges {
			if alive[e.U] && alive[e.V] {
				next = append(next, e)
			}
		}
		edges = next
	}
	return solver.Result{
		Algorithm:  "PBU",
		Vertices:   best,
		Density:    g.InducedDensity(best),
		Iterations: rounds,
	}, nil
}
