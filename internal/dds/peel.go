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

// ratioSweepLazy runs ratioPeel over the a/b candidate grid (a, b in
// [1, n]), claiming pairs lazily from an atomic counter. Duplicate ratios
// (2/4 after 1/2) are re-peeled — the naive baseline's honest cost profile.
func ratioSweepLazy(ctx context.Context, d *graph.Directed, n, p int, budget time.Duration) (peelOutcome, int, bool, error) {
	deadline := time.Time{}
	if budget > 0 {
		deadline = time.Now().Add(budget)
	}
	total := int64(n) * int64(n)
	var mu sync.Mutex
	best := peelOutcome{density: -1}
	var done atomic.Int64
	var timedOut atomic.Bool
	var canceled atomic.Bool
	var next atomic.Int64
	parallel.Workers(p, func(int) {
		for {
			i := next.Add(1) - 1
			if i >= total {
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
			a := int(i/int64(n)) + 1
			b := int(i%int64(n)) + 1
			out := ratioPeel(d, float64(a)/float64(b))
			done.Add(1)
			mu.Lock()
			if out.density > best.density {
				best = out
			}
			mu.Unlock()
		}
	})
	if canceled.Load() {
		return peelOutcome{}, 0, false, cancel.Check(ctx)
	}
	return best, int(done.Load()), timedOut.Load(), nil
}

// ratioSweep runs ratioPeel for every candidate ratio in parallel with a
// deadline; returns the best outcome, how many ratios were completed, and
// whether the deadline cut the sweep short.
func ratioSweep(ctx context.Context, d *graph.Directed, ratios []float64, p int, budget time.Duration) (peelOutcome, int, bool, error) {
	deadline := time.Time{}
	if budget > 0 {
		deadline = time.Now().Add(budget)
	}
	var mu sync.Mutex
	best := peelOutcome{density: -1}
	var done atomic.Int64
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
			out := ratioPeel(d, ratios[i])
			done.Add(1)
			mu.Lock()
			if out.density > best.density {
				best = out
			}
			mu.Unlock()
		}
	})
	if canceled.Load() {
		return peelOutcome{}, 0, false, cancel.Check(ctx)
	}
	return best, int(done.Load()), timedOut.Load(), nil
}

// PBS is the parallelized Charikar 2-approximation: the full O(n²) ratio
// sweep over all a/b pairs, one peel per thread-claimed candidate, with
// the pairs enumerated lazily — materializing n² candidates up front would
// dwarf the peeling cost itself on large n. Budget > 0 imposes a deadline
// (the paper uses 10⁵ seconds); a result with TimedOut set reports how far
// the sweep got.
//
// PBS runs under cooperative cancellation: the sweep workers poll ctx
// between claimed ratios. A budget expiry keeps the best-so-far answer
// (TimedOut set); a ctx expiry abandons the run with a wrapped
// cancel.ErrCanceled. A nil ctx never cancels.
func PBS(ctx context.Context, d *graph.Directed, opts solver.Params) (solver.DirectedResult, error) {
	n := d.N()
	if n == 0 || d.M() == 0 {
		return solver.DirectedResult{Algorithm: "PBS"}, nil
	}
	best, doneCount, timedOut, err := ratioSweepLazy(ctx, d, n, opts.Workers, opts.Budget)
	if err != nil {
		return solver.DirectedResult{}, err
	}
	return solver.DirectedResult{
		Algorithm:  "PBS",
		S:          best.s,
		T:          best.t,
		Density:    best.density,
		Iterations: doneCount,
		TimedOut:   timedOut,
	}, nil
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
	best, doneCount, timedOut, err := ratioSweep(ctx, d, ratios, opts.Workers, opts.Budget)
	if err != nil {
		return solver.DirectedResult{}, err
	}
	return solver.DirectedResult{
		Algorithm:  "PFKS",
		S:          best.s,
		T:          best.t,
		Density:    best.density,
		Iterations: doneCount,
		TimedOut:   timedOut,
	}, nil
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
