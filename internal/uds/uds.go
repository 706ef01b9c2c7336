package uds

import (
	"context"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/solver"
)

// PKMC returns the k*-core computed by the paper's Algorithm 2 — a
// 2-approximate densest subgraph (Lemma 1) — with opts.Workers workers.
// An armed opts.Trace receives the phase timings, the per-sweep h-index
// convergence record (Algorithm 2's h_max / candidate-count pair and the
// Theorem-1 early-stop trigger), and the k* / core-size counters. PKMC
// cannot be canceled: its sweeps stop after a handful of iterations.
func PKMC(_ context.Context, g *graph.Undirected, opts solver.Params) (solver.Result, error) {
	tr := opts.Trace
	tr.SetAlgorithm("PKMC")
	endCore := tr.StartPhase("core-decomposition")
	res := core.PKMC(g, opts.Workers, tr)
	endCore()
	endDensity := tr.StartPhase("density-evaluation")
	density := g.InducedDensity(res.Vertices)
	endDensity()
	tr.Counter("k_star", int64(res.KStar))
	tr.Counter("core_size", int64(len(res.Vertices)))
	return solver.Result{
		Algorithm:  "PKMC",
		Vertices:   res.Vertices,
		Density:    density,
		Iterations: res.Iterations,
		KStar:      res.KStar,
	}, nil
}

// Local returns the k*-core via full h-index convergence (Algorithm 1), the
// paper's "Local" baseline of Exp-1: it pays for full convergence of every
// vertex even though only the k*-core is needed. Its trace is PKMC's — the
// full-convergence record against which PKMC's early stop is judged.
func Local(_ context.Context, g *graph.Undirected, opts solver.Params) (solver.Result, error) {
	tr := opts.Trace
	tr.SetAlgorithm("Local")
	endCore := tr.StartPhase("core-decomposition")
	res := core.Local(g, opts.Workers, tr)
	k, vs := core.KStarCore(res.CoreNum)
	endCore()
	endDensity := tr.StartPhase("density-evaluation")
	density := g.InducedDensity(vs)
	endDensity()
	tr.Counter("k_star", int64(k))
	tr.Counter("core_size", int64(len(vs)))
	return solver.Result{
		Algorithm:  "Local",
		Vertices:   vs,
		Density:    density,
		Iterations: res.Iterations,
		KStar:      k,
	}, nil
}

// PKC returns the k*-core via parallel level peeling (Kabir–Madduri), the
// paper's "PKC" baseline.
func PKC(_ context.Context, g *graph.Undirected, opts solver.Params) (solver.Result, error) {
	res := core.PKC(g, opts.Workers)
	k, vs := core.KStarCore(res.CoreNum)
	return solver.Result{
		Algorithm:  "PKC",
		Vertices:   vs,
		Density:    g.InducedDensity(vs),
		Iterations: res.Iterations,
		KStar:      k,
	}, nil
}

// BZ returns the k*-core via the serial Batagelj–Zaveršnik decomposition —
// not one of the paper's compared algorithms, but the natural single-thread
// reference point.
func BZ(_ context.Context, g *graph.Undirected, _ solver.Params) (solver.Result, error) {
	k, vs := core.KStarCore(core.BZ(g))
	return solver.Result{
		Algorithm: "BZ",
		Vertices:  vs,
		Density:   g.InducedDensity(vs),
		KStar:     k,
	}, nil
}
