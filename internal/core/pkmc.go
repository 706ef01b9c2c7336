package core

import (
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// PKMCResult is the outcome of the paper's parallel k*-core computation.
type PKMCResult struct {
	KStar      int32   // the maximum core number k*
	Vertices   []int32 // the vertex set of the k*-core
	Iterations int     // h-index sweeps actually executed
	H          []int32 // final h-index values (upper bounds, NOT core numbers for vertices outside the k*-core)
}

// PKMC is the paper's Algorithm 2: parallel k*-core computation. It runs
// the same synchronous h-index sweeps as Local but stops as soon as the
// Theorem-1 criterion holds — the maximum h-index value h_max and the
// number s of vertices attaining it are both unchanged across two
// consecutive iterations (and, per Proposition 1, s > h_max). At that point
// k* = h_max and {v : h(v) = h_max} is exactly the k*-core, a
// 2-approximation of the undirected densest subgraph (Lemma 1).
//
// Because power-law graphs concentrate their high-degree vertices in a
// small dense nucleus, the criterion typically fires after 3–5 sweeps while
// full convergence (Local) needs tens to thousands — the entire speedup of
// the paper's Exp-1/Exp-2 comes from this gap.
//
// tr, when non-nil, records one trace.Iteration per h-index sweep (h_max,
// candidate count, changed vertices, max delta, early-stop trigger); nil
// keeps the sweep on its untraced fast path.
func PKMC(g *graph.Undirected, p int, tr *trace.Trace) PKMCResult {
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
	vertices := collectAt(sw.cur, kstar, p)
	return PKMCResult{KStar: kstar, Vertices: vertices, Iterations: iters, H: sw.cur}
}

// collectAt gathers, in parallel, the vertices whose h-value equals target,
// preserving ascending vertex order.
func collectAt(h []int32, target int32, p int) []int32 {
	n := len(h)
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
			if h[i] == target {
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
			if h[i] == target {
				out[w] = int32(i)
				w++
			}
		}
	})
	return out
}
