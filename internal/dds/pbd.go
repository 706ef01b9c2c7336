package dds

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cancel"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/solver"
)

// PBD is the directed batch-peeling algorithm of Bahmani, Kumar &
// Vassilvitskii on the shared-memory model: instead of all O(n²) ratios it
// tries only the powers of δ spanning [1/n, n] (δ=2 in the paper's setup),
// and for each ratio it removes in one round *every* vertex on the heavier
// side whose degree is at most (1+ε) times that side's average. The grid
// coarseness and batch threshold buy O(log² n)-ish total rounds at the
// cost of a 2δ(1+ε) approximation guarantee (=8 with the paper's δ=2,
// ε=1). Parallelism is one ratio per claimed task. δ and ε are
// opts.Delta and opts.Epsilon.
//
// PBD runs under cooperative cancellation and opts.Budget: the sweep
// workers poll ctx and the budget deadline between claimed ratios. A
// budget expiry keeps the best-so-far answer (TimedOut set); a ctx expiry
// abandons the run with a wrapped cancel.ErrCanceled. A nil ctx never
// cancels.
func PBD(ctx context.Context, d *graph.Directed, opts solver.Params) (solver.DirectedResult, error) {
	delta, eps, p, budget := opts.Delta, opts.Epsilon, opts.Workers, opts.Budget
	n := d.N()
	if n == 0 || d.M() == 0 {
		return solver.DirectedResult{Algorithm: "PBD"}, nil
	}
	if delta <= 1 {
		delta = 2
	}
	if eps <= 0 {
		eps = 1
	}
	k := int(math.Ceil(math.Log(float64(n)) / math.Log(delta)))
	var ratios []float64
	for i := -k; i <= k; i++ {
		ratios = append(ratios, math.Pow(delta, float64(i)))
	}
	deadline := time.Time{}
	if budget > 0 {
		deadline = time.Now().Add(budget)
	}
	var mu sync.Mutex
	best := peelOutcome{density: -1}
	var rounds atomic.Int64
	var timedOut atomic.Bool
	var canceled atomic.Bool
	var next atomic.Int64
	parallel.Workers(p, func(int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(ratios) {
				return
			}
			if cancel.Check(ctx) != nil {
				canceled.Store(true)
				return
			}
			if !deadline.IsZero() && time.Now().After(deadline) {
				timedOut.Store(true)
				return
			}
			out, r := batchPeel(d, ratios[i], eps)
			rounds.Add(int64(r))
			mu.Lock()
			if out.density > best.density {
				best = out
			}
			mu.Unlock()
		}
	})
	if canceled.Load() {
		return solver.DirectedResult{}, cancel.Check(ctx)
	}
	return solver.DirectedResult{
		Algorithm:  "PBD",
		S:          best.s,
		T:          best.t,
		Density:    best.density,
		Iterations: int(rounds.Load()),
		TimedOut:   timedOut.Load(),
	}, nil
}

// batchPeel runs Bahmani-style synchronous rounds for one target ratio c.
// Returns the best (S, T) and the number of rounds.
//
// Like PBU, the rounds follow the streaming/MapReduce execution model the
// algorithm was designed for: degrees are recomputed by a full pass over
// the surviving arc list every round and the list is rewritten after each
// batch removal — no incremental updates. That per-round full-data cost is
// what the paper's Exp-5/Exp-7 measure for PBD.
func batchPeel(d *graph.Directed, c, eps float64) (peelOutcome, int) {
	n := d.N()
	arcs := d.Arcs()
	inS := make([]bool, n)
	inT := make([]bool, n)
	for v := 0; v < n; v++ {
		inS[v] = true
		inT[v] = true
	}
	sizeS, sizeT := n, n
	dplus := make([]int32, n)
	dminus := make([]int32, n)
	best := peelOutcome{density: -1}
	snapshot := func() {
		best.s = best.s[:0]
		best.t = best.t[:0]
		for v := int32(0); int(v) < n; v++ {
			if inS[v] {
				best.s = append(best.s, v)
			}
			if inT[v] {
				best.t = append(best.t, v)
			}
		}
	}
	rounds := 0
	for sizeS > 0 && sizeT > 0 && len(arcs) > 0 {
		rounds++
		// Pass 1: recompute S-side out-degrees and T-side in-degrees from
		// the arc stream.
		for v := 0; v < n; v++ {
			dplus[v] = 0
			dminus[v] = 0
		}
		for _, a := range arcs {
			dplus[a.U]++
			dminus[a.V]++
		}
		if dd := densityOf(int64(len(arcs)), sizeS, sizeT); dd > best.density {
			best.density = dd
			snapshot()
		}
		// Pass 2: batch-remove the light side.
		removed := 0
		if float64(sizeS) >= c*float64(sizeT) {
			threshold := int32((1 + eps) * float64(len(arcs)) / float64(sizeS))
			for u := 0; u < n; u++ {
				if inS[u] && dplus[u] <= threshold {
					inS[u] = false
					removed++
				}
			}
			sizeS -= removed
		} else {
			threshold := int32((1 + eps) * float64(len(arcs)) / float64(sizeT))
			for v := 0; v < n; v++ {
				if inT[v] && dminus[v] <= threshold {
					inT[v] = false
					removed++
				}
			}
			sizeT -= removed
		}
		if removed == 0 {
			break // survivors all exceed (1+ε)·average: cannot happen; defensive
		}
		// Pass 3: rewrite the stream.
		next := arcs[:0]
		for _, a := range arcs {
			if inS[a.U] && inT[a.V] {
				next = append(next, a)
			}
		}
		arcs = next
	}
	return best, rounds
}
