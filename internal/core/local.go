package core

import (
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// LocalResult is the outcome of a full h-index core decomposition.
type LocalResult struct {
	CoreNum      []int32 // converged h-index = core number of every vertex
	Iterations   int     // number of synchronous sweeps until convergence
	EdgesScanned int64   // adjacency entries the sweeps read: 2m per sweep
}

// Local runs the h-index–based parallel core decomposition of Sariyüce et
// al. (the paper's Algorithm 1) with p workers (p <= 0 means GOMAXPROCS):
// initialize h⁰(v) = deg(v), then repeat synchronous sweeps
// hᵗ⁺¹(v) = H-index of {hᵗ(u) : u ∈ N(v)} until no value changes. The fixed
// point is exactly the core-number vector; each hᵗ(v) is an upper bound on
// core(v) and the sequence is pointwise non-increasing.
//
// The sweeps here are Jacobi-style (read hᵗ, write hᵗ⁺¹) as in the paper's
// pseudocode, which makes iteration counts deterministic and the sweep
// embarrassingly parallel — no synchronization beyond the per-iteration
// barrier. When tr is non-nil, every sweep records its h_max / candidate
// count / changed-vertex count (trace.Iteration); nil keeps the untraced
// fast path.
func Local(g *graph.Undirected, p int, tr *trace.Trace) LocalResult {
	sw := newHSweeper(g, p)
	iters := 0
	for {
		nChanged, maxDelta := sw.sweep()
		if tr.Enabled() {
			hmax, s := parallel.MaxIndexInt32(sw.cur, p)
			tr.AddIteration(trace.Iteration{HMax: hmax, AtHMax: s, Changed: nChanged, MaxDelta: maxDelta})
		}
		iters++
		if nChanged == 0 {
			break
		}
	}
	return LocalResult{CoreNum: sw.cur, Iterations: iters, EdgesScanned: sw.scanned.Load()}
}
