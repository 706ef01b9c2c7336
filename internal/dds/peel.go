package dds

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bucket"
	"repro/internal/cancel"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/solver"
)

// This file implements the ratio-sweep peeling baselines PBS and PFKS. Both
// run Charikar's directed greedy peel once per candidate ratio c = |S|/|T|
// and keep the densest (S, T) seen; they differ only in how many ratios
// they try — PBS sweeps all O(n²) distinct a/b ratios (time O(n²(n+m))),
// the fixed Khuller–Saha variant only n geometrically spaced ones (time
// O(n(n+m)), approximation ratio > 2, as the paper notes). On anything but
// toy graphs both blow any time budget, which is exactly their role in the
// paper's Exp-5; Budget caps the attempt.

// peelOutcome is one ratio-peel's best state.
type peelOutcome struct {
	density float64
	s, t    []int32
}

// ratioPeel runs the directed Charikar peel for a fixed target ratio c:
// starting from S = T = V, repeatedly delete the minimum out-degree vertex
// of S when |S| >= c·|T| and the minimum in-degree vertex of T otherwise,
// tracking ρ(S, T) after every deletion. O(n + m) with bucket queues.
func ratioPeel(d *graph.Directed, c float64) peelOutcome {
	n := d.N()
	dplus := make([]int32, n)
	dminus := make([]int32, n)
	for v := int32(0); int(v) < n; v++ {
		dplus[v] = d.OutDegree(v)
		dminus[v] = d.InDegree(v)
	}
	qs := bucket.New(dplus, d.MaxOutDegree())
	qt := bucket.New(dminus, d.MaxInDegree())
	inS := make([]bool, n)
	inT := make([]bool, n)
	for v := range inS {
		inS[v] = true
		inT[v] = true
	}
	edges := d.M()
	sizeS, sizeT := n, n

	type step struct {
		v     int32
		sSide bool
	}
	trace := make([]step, 0, 2*n)
	best := densityOf(edges, sizeS, sizeT)
	bestStep := 0

	for sizeS > 0 && sizeT > 0 && qs.Len() > 0 && qt.Len() > 0 {
		if float64(sizeS) >= c*float64(sizeT) {
			u, k := qs.ExtractMin()
			inS[u] = false
			sizeS--
			edges -= int64(k)
			for _, v := range d.OutNeighbors(u) {
				if inT[v] {
					qt.Decrement(v)
				}
			}
			trace = append(trace, step{u, true})
		} else {
			v, k := qt.ExtractMin()
			inT[v] = false
			sizeT--
			edges -= int64(k)
			for _, u := range d.InNeighbors(v) {
				if inS[u] {
					qs.Decrement(u)
				}
			}
			trace = append(trace, step{v, false})
		}
		if dd := densityOf(edges, sizeS, sizeT); dd > best {
			best = dd
			bestStep = len(trace)
		}
	}
	// Replay the prefix to materialize the best (S, T).
	for v := range inS {
		inS[v] = true
		inT[v] = true
	}
	for _, st := range trace[:bestStep] {
		if st.sSide {
			inS[st.v] = false
		} else {
			inT[st.v] = false
		}
	}
	var out peelOutcome
	out.density = best
	for v := int32(0); int(v) < n; v++ {
		if inS[v] {
			out.s = append(out.s, v)
		}
		if inT[v] {
			out.t = append(out.t, v)
		}
	}
	return out
}

// ratioSweep runs peel(i) for every candidate index i in [0, count) on p
// workers, which claim indices from an atomic counter, and returns the
// densest outcome as name's result, with Iterations the sum of the work
// the peels report. Before each peel a worker polls ctx and then the budget
// deadline (budget > 0): a budget expiry keeps the best-so-far answer
// (TimedOut set); a ctx expiry abandons the run with a wrapped
// cancel.ErrCanceled. A nil ctx never cancels.
func ratioSweep(ctx context.Context, name string, count int64, opts solver.Params, peel func(i int64) (peelOutcome, int)) (solver.DirectedResult, error) {
	deadline := time.Time{}
	if opts.Budget > 0 {
		deadline = time.Now().Add(opts.Budget)
	}
	var mu sync.Mutex
	best := peelOutcome{density: -1}
	var work atomic.Int64
	var timedOut atomic.Bool
	var canceled atomic.Bool
	var next atomic.Int64
	parallel.Workers(opts.Workers, func(int) {
		for {
			i := next.Add(1) - 1
			if i >= count {
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
			out, w := peel(i)
			work.Add(int64(w))
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
		Algorithm:  name,
		S:          best.s,
		T:          best.t,
		Density:    best.density,
		Iterations: int(work.Load()),
		TimedOut:   timedOut.Load(),
	}, nil
}

// PBS is the parallelized Charikar 2-approximation: the full O(n²) ratio
// sweep over all a/b pairs (a, b in [1, n]), one peel per thread-claimed
// candidate, with the pairs enumerated lazily — materializing n² candidates
// up front would dwarf the peeling cost itself on large n. Duplicate
// ratios (2/4 after 1/2) are re-peeled — the naive baseline's honest cost
// profile. Budget > 0 imposes a deadline (the paper uses 10⁵ seconds); a
// result with TimedOut set reports how far the sweep got. Cancellation and
// the budget follow ratioSweep's contract.
func PBS(ctx context.Context, d *graph.Directed, opts solver.Params) (solver.DirectedResult, error) {
	n := int64(d.N())
	if n == 0 || d.M() == 0 {
		return solver.DirectedResult{Algorithm: "PBS"}, nil
	}
	return ratioSweep(ctx, "PBS", n*n, opts, func(i int64) (peelOutcome, int) {
		return ratioPeel(d, float64(i/n+1)/float64(i%n+1)), 1
	})
}

// PFKS is the fixed Khuller–Saha linear-per-pass baseline: n geometrically
// spaced ratio candidates covering [1/n, n] (the coarser grid is why its
// approximation ratio exceeds 2), peeled in parallel under the same budget
// regime as PBS, with the same cancellation contract.
func PFKS(ctx context.Context, d *graph.Directed, opts solver.Params) (solver.DirectedResult, error) {
	n := d.N()
	if n == 0 || d.M() == 0 {
		return solver.DirectedResult{Algorithm: "PFKS"}, nil
	}
	ratios := geometricRatios(n, n)
	return ratioSweep(ctx, "PFKS", int64(len(ratios)), opts, func(i int64) (peelOutcome, int) {
		return ratioPeel(d, ratios[i]), 1
	})
}

// geometricRatios returns k ratios geometrically spanning [1/n, n].
func geometricRatios(n, k int) []float64 {
	if k < 1 {
		k = 1
	}
	steps := k - 1
	if steps < 1 {
		steps = 1
	}
	ratios := make([]float64, 0, k)
	lo, hi := 1.0/float64(n), float64(n)
	for i := 0; i < k; i++ {
		f := float64(i) / float64(steps)
		ratios = append(ratios, lo*math.Pow(hi/lo, f))
	}
	return ratios
}
