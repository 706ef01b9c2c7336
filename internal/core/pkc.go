package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// PKCResult is the outcome of the parallel level-synchronous peeling.
type PKCResult struct {
	CoreNum    []int32
	Iterations int // number of peel levels processed (= k* + 2 with the empty final level)
}

// PKC is the parallel peeling k-core decomposition of Kabir & Madduri
// (ParK): process degree levels 0, 1, 2, ... in order; at each level,
// repeatedly peel every remaining vertex whose current degree is at most
// the level, propagating degree decrements to neighbors atomically. A
// vertex peeled at level k has core number exactly k.
//
// Unlike the h-index algorithms, PKC's parallelism is *within* a level —
// levels themselves are inherently sequential, so the iteration count is
// k*+2 no matter how many workers run (the paper's Exp-2), which is what
// limits its thread scaling in Exp-3.
func PKC(g *graph.Undirected, p int) PKCResult {
	n := g.N()
	coreNum := make([]int32, n)
	if n == 0 {
		return PKCResult{CoreNum: coreNum}
	}
	deg := make([]atomic.Int32, n)
	claimed := make([]atomic.Bool, n)
	parallel.For(n, p, func(v int) {
		deg[v].Store(g.Degree(int32(v)))
	})
	var remaining atomic.Int64
	remaining.Store(int64(n))

	var mu sync.Mutex
	iterations := 0
	for level := int32(0); remaining.Load() > 0; level++ {
		iterations++
		// Scan: claim every live vertex already at or below this level.
		var frontier []int32
		parallel.ForBlocks(n, p, parallel.DefaultGrain, func(lo, hi int) {
			var local []int32
			for v := lo; v < hi; v++ {
				if deg[v].Load() <= level && claimed[v].CompareAndSwap(false, true) {
					local = append(local, int32(v))
				}
			}
			if len(local) > 0 {
				mu.Lock()
				frontier = append(frontier, local...)
				mu.Unlock()
			}
		})
		// Cascade: peeling may drag more vertices down to this level.
		for len(frontier) > 0 {
			var next []int32
			parallel.ForBlocks(len(frontier), p, 64, func(lo, hi int) {
				var local []int32
				for i := lo; i < hi; i++ {
					v := frontier[i]
					coreNum[v] = level
					for _, u := range g.Neighbors(v) {
						if claimed[u].Load() {
							continue
						}
						// Exactly one decrement lands on the level
						// boundary, so u is enqueued exactly once.
						if nd := deg[u].Add(-1); nd == level && claimed[u].CompareAndSwap(false, true) {
							local = append(local, u)
						}
					}
				}
				if len(local) > 0 {
					mu.Lock()
					next = append(next, local...)
					mu.Unlock()
				}
			})
			remaining.Add(-int64(len(frontier)))
			frontier = next
		}
	}
	return PKCResult{CoreNum: coreNum, Iterations: iterations}
}
