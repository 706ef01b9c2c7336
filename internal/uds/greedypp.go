package uds

import (
	"context"

	"repro/internal/cancel"
	"repro/internal/graph"
	"repro/internal/solver"
)

// DefaultGreedyPPRounds is the iteration count used when rounds <= 0. A
// few dozen rounds already close most of Charikar's gap to the optimum on
// real-world graphs (Boob et al. report near-exact densities by round ~10).
const DefaultGreedyPPRounds = 16

// GreedyPP is the iterated greedy peeling of Boob et al. ("Flowless",
// WWW'20), the remaining 2-approximation row of the paper's Table 1: run
// Charikar's peel repeatedly, but order vertex removals by accumulated
// load + current degree, where a vertex's load grows by its degree at the
// moment it is peeled in each round. The loads converge toward the dual LP
// solution, so the best subgraph over all rounds approaches the true
// densest subgraph while each round stays O(m + n log n)-free (bucketed,
// O(m + n + L) with L the max load).
//
// Guarantee: never worse than Charikar's 2-approximation (round one *is*
// Charikar), converging to (1+ε) as rounds grow; opts.Iterations is the
// round count.
//
// GreedyPP runs under cooperative cancellation: ctx is polled once per
// peel round (each round is O(m + n + L) work) and a wrapped
// cancel.ErrCanceled is returned once it is done. A nil ctx never cancels.
func GreedyPP(ctx context.Context, g *graph.Undirected, opts solver.Params) (solver.Result, error) {
	rounds := opts.Iterations
	n := g.N()
	if n == 0 {
		return solver.Result{Algorithm: "GreedyPP"}, nil
	}
	if rounds <= 0 {
		rounds = DefaultGreedyPPRounds
	}
	load := make([]int64, n)
	bestDensity := -1.0
	var best []int32

	deg := make([]int32, n)
	alive := make([]bool, n)
	order := make([]int32, 0, n)
	for r := 0; r < rounds; r++ {
		if err := cancel.Check(ctx); err != nil {
			return solver.Result{}, err
		}
		// Peel by key = load + current degree, implemented with a lazy
		// integer heap over int64 keys via buckets of a growing slice —
		// loads are unbounded, so the bucket trick needs the max key.
		var maxKey int64
		for v := 0; v < n; v++ {
			deg[v] = g.Degree(int32(v))
			alive[v] = true
			if k := load[v] + int64(deg[v]); k > maxKey {
				maxKey = k
			}
		}
		buckets := make([][]int32, maxKey+1)
		key := make([]int64, n)
		for v := 0; v < n; v++ {
			k := load[v] + int64(deg[v])
			key[v] = k
			buckets[k] = append(buckets[k], int32(v))
		}
		edgesLeft := g.M()
		order = order[:0]
		cur := int64(0)
		bestRemovalsRound := 0
		bestDensityRound := float64(edgesLeft) / float64(n)
		for removed := 0; removed < n; removed++ {
			// Find the next live minimum-key vertex (lazy deletion).
			var v int32 = -1
			for {
				for cur <= maxKey && len(buckets[cur]) == 0 {
					cur++
				}
				b := buckets[cur]
				cand := b[len(b)-1]
				buckets[cur] = b[:len(b)-1]
				if alive[cand] && key[cand] == cur {
					v = cand
					break
				}
			}
			alive[v] = false
			load[v] += int64(deg[v])
			edgesLeft -= int64(deg[v])
			order = append(order, v)
			for _, u := range g.Neighbors(v) {
				if alive[u] {
					deg[u]--
					nk := load[u] + int64(deg[u])
					if nk < key[u] {
						key[u] = nk
						buckets[nk] = append(buckets[nk], u)
						if nk < cur {
							cur = nk
						}
					}
				}
			}
			if left := n - removed - 1; left > 0 {
				if d := float64(edgesLeft) / float64(left); d > bestDensityRound {
					bestDensityRound = d
					bestRemovalsRound = removed + 1
				}
			}
		}
		if bestDensityRound > bestDensity {
			bestDensity = bestDensityRound
			dead := make([]bool, n)
			for _, v := range order[:bestRemovalsRound] {
				dead[v] = true
			}
			best = best[:0]
			for v := 0; v < n; v++ {
				if !dead[v] {
					best = append(best, int32(v))
				}
			}
		}
	}
	return solver.Result{
		Algorithm:  "GreedyPP",
		Vertices:   best,
		Density:    g.InducedDensity(best),
		Iterations: rounds,
	}, nil
}
