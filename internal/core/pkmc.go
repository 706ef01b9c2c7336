package core

import (
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// PKMCResult is the outcome of a parallel k*-core computation.
type PKMCResult struct {
	KStar      int32   // the maximum core number k*
	Vertices   []int32 // the vertex set of the k*-core
	Iterations int     // h-index sweeps actually executed
}

// PKMC computes k* and the k*-core with asynchronous h-index sweeps that
// stop on a certificate: the engine behind the registry's pkmc. It
// starts from h(v) = deg(v), like the paper's Algorithm 2, but each
// sweep updates h in place, so a vertex reads the values its neighbors
// already wrote this sweep (Sariyüce et al.'s asynchronous local
// algorithms), and about half as many sweeps reach the answer.
//
// The stop holds under any update order. Every value ever written is at
// least the vertex's core number: the h-index operator is monotone, the
// core numbers are its fixed point, and deg(v) >= core(v). Each h(v) is
// also non-increasing, because the barrier between sweeps means a vertex
// is recomputed only from neighbor values no larger than the ones it last
// saw. After a sweep that changed something, let h_max be the largest
// value and C = {v : h(v) = h_max}. If |C| > h_max and every v ∈ C has at
// least h_max neighbors in C, then C induces minimum degree h_max, so
// k* >= h_max; and k* = max core(v) <= h_max. Hence k* = h_max. Every
// vertex of the k*-core has k* <= h(v) <= h_max, so it lies in C, and C
// lies in the h_max-core, so C is exactly the k*-core. A sweep that
// changes nothing has reached the fixed point, h equals the core numbers,
// and C is again the k*-core.
//
// The answer is certified, so it does not depend on p or the schedule;
// the sweep count can at p > 1. tr, when non-nil, records one
// trace.Iteration per sweep, with EarlyStop set on the certified one.
func PKMC(g *graph.Undirected, p int, tr *trace.Trace) PKMCResult {
	sw := newAsyncSweeper(g, p)
	for iters := 1; ; iters++ {
		nChanged, maxDelta, hmax, atMax := sw.sweep()
		certified := nChanged > 0 && atMax > int64(hmax) && sw.certify(hmax)
		tr.AddIteration(trace.Iteration{
			HMax: hmax, AtHMax: atMax, Changed: nChanged, MaxDelta: maxDelta, EarlyStop: certified,
		})
		if certified || nChanged == 0 {
			h := sw.h
			vertices := collectAt(g.N(), p, func(v int) bool { return h[v].Load() == hmax })
			return PKMCResult{KStar: hmax, Vertices: vertices, Iterations: iters}
		}
	}
}

// PKMCSync is the paper's Algorithm 2 as published, kept for Exp-2's
// iteration table. It runs the same synchronous h-index sweeps as Local
// but stops as soon as the Theorem-1 criterion holds — the maximum
// h-index value h_max and the number s of vertices attaining it are both
// unchanged across two consecutive iterations (and, per Proposition 1,
// s > h_max). At that point k* = h_max and {v : h(v) = h_max} is exactly
// the k*-core, a 2-approximation of the undirected densest subgraph
// (Lemma 1).
//
// Because power-law graphs concentrate their high-degree vertices in a
// small dense nucleus, the criterion typically fires after 3–5 sweeps while
// full convergence (Local) needs tens to thousands — the entire speedup of
// the paper's Exp-1/Exp-2 comes from this gap.
//
// tr, when non-nil, records one trace.Iteration per h-index sweep (h_max,
// candidate count, changed vertices, max delta, early-stop trigger); nil
// keeps the sweep on its untraced fast path.
func PKMCSync(g *graph.Undirected, p int, tr *trace.Trace) PKMCResult {
	sw := newHSweeper(g, p)

	hmax, s := parallel.MaxIndexInt32(sw.cur, p)
	iters := 0
	for {
		nChanged, maxDelta := sw.sweep()
		changed := nChanged > 0
		iters++
		if !changed {
			if tr.Enabled() {
				nhmax, ns := parallel.MaxIndexInt32(sw.cur, p)
				tr.AddIteration(trace.Iteration{HMax: nhmax, AtHMax: ns})
			}
			break // full convergence: h equals the core numbers everywhere
		}
		nhmax, ns := parallel.MaxIndexInt32(sw.cur, p)
		stop := ns > int64(nhmax) && nhmax == hmax && ns == s
		tr.AddIteration(trace.Iteration{
			HMax: nhmax, AtHMax: ns, Changed: nChanged, MaxDelta: maxDelta, EarlyStop: stop,
		})
		if stop {
			break // Theorem 1: the k*-core is already determined
		}
		hmax, s = nhmax, ns
	}
	kstar, _ := parallel.MaxIndexInt32(sw.cur, p)
	h := sw.cur
	vertices := collectAt(g.N(), p, func(v int) bool { return h[v] == kstar })
	return PKMCResult{KStar: kstar, Vertices: vertices, Iterations: iters}
}

// collectAt gathers, in parallel, the vertices v in [0, n) for which at(v)
// holds, preserving ascending vertex order.
func collectAt(n, p int, at func(v int) bool) []int32 {
	// Two-pass: count per block, prefix, then fill — keeps the output
	// sorted without a post-sort and without contention.
	const grain = 4096
	blocks := (n + grain - 1) / grain
	counts := make([]int64, blocks+1)
	parallel.For(blocks, p, func(b int) {
		lo, hi := b*grain, (b+1)*grain
		if hi > n {
			hi = n
		}
		var c int64
		for i := lo; i < hi; i++ {
			if at(i) {
				c++
			}
		}
		counts[b+1] = c
	})
	for b := 0; b < blocks; b++ {
		counts[b+1] += counts[b]
	}
	out := make([]int32, counts[blocks])
	parallel.For(blocks, p, func(b int) {
		lo, hi := b*grain, (b+1)*grain
		if hi > n {
			hi = n
		}
		w := counts[b]
		for i := lo; i < hi; i++ {
			if at(i) {
				out[w] = int32(i)
				w++
			}
		}
	})
	return out
}
