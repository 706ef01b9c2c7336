package uds

import (
	"context"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/solver"
	"repro/internal/trace"
)

// PKMC returns the k*-core — a 2-approximate densest subgraph (Lemma 1)
// — computed by core.PKMC's asynchronous h-index sweeps with their
// certified stop, with opts.Workers workers. An armed opts.Trace receives
// the phase timings, the per-sweep h-index record (h_max, its candidate
// count, and the certified stop), and the k* / core-size counters. PKMC
// cannot be canceled: its sweeps stop after a handful of iterations.
func PKMC(_ context.Context, g *graph.Undirected, opts solver.Params) (solver.Result, error) {
	return kStarCoreSolve("PKMC", core.PKMC, g, opts), nil
}

// PKMCSync is the paper's Algorithm 2 as published: core.PKMCSync's
// synchronous sweeps with the Theorem-1 early stop. It returns the same
// k*-core as PKMC; Exp-2 runs both to show the paper's sweep count
// beside the asynchronous one. Its trace is PKMC's.
func PKMCSync(_ context.Context, g *graph.Undirected, opts solver.Params) (solver.Result, error) {
	return kStarCoreSolve("PKMC-Sync", core.PKMCSync, g, opts), nil
}

// kStarCoreSolve runs one of core's k*-core engines as a traced solve
// named name.
func kStarCoreSolve(name string, engine func(*graph.Undirected, int, *trace.Trace) core.PKMCResult,
	g *graph.Undirected, opts solver.Params) solver.Result {
	tr := opts.Trace
	tr.SetAlgorithm(name)
	endCore := tr.StartPhase("core-decomposition")
	res := engine(g, opts.Workers, tr)
	endCore()
	endDensity := tr.StartPhase("density-evaluation")
	density := g.InducedDensity(res.Vertices)
	endDensity()
	tr.Counter("k_star", int64(res.KStar))
	tr.Counter("core_size", int64(len(res.Vertices)))
	return solver.Result{
		Algorithm:  name,
		Vertices:   res.Vertices,
		Density:    density,
		Iterations: res.Iterations,
		KStar:      res.KStar,
	}
}

// Local returns the k*-core via full h-index convergence (Algorithm 1), the
// paper's "Local" baseline of Exp-1: it pays for full convergence of every
// vertex even though only the k*-core is needed. Its trace is PKMC's — the
// full-convergence record against which PKMC's and PKMC-Sync's early
// stops are judged.
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
