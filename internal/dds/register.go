package dds

import (
	"context"

	"repro/internal/graph"
	"repro/internal/solver"
)

// toSolver crosses the registration boundary; see the uds twin.
func toSolver(r Result) solver.DirectedResult {
	return solver.DirectedResult{
		Algorithm:  r.Algorithm,
		S:          r.S,
		T:          r.T,
		Density:    r.Density,
		XStar:      r.XStar,
		YStar:      r.YStar,
		Iterations: r.Iterations,
		TimedOut:   r.TimedOut,
	}
}

// The DDS lineup registers itself at init time: the paper's Exp-5
// algorithms plus the exact solvers. Order here is the presentation order
// everywhere downstream.
func init() {
	solver.Register(solver.Descriptor{
		Name: "pwc", Kind: solver.KindDDS, Display: "PWC",
		Grade:        solver.Grade2Approx,
		Guarantee:    "2-approximation: the w*-induced subgraph's density is at least ρ*/2 (Theorem 3)",
		Paper:        "Algorithms 3–4 (the reproduced paper)",
		TraceColumns: []string{"phases", "counters"},
		Default:      true, DegradeRank: 1,
		SolveDDS: func(ctx context.Context, d *graph.Directed, p solver.Params) (solver.DirectedResult, error) {
			return toSolver(PWCTraced(d, p.Workers, p.Trace)), nil
		},
	})
	solver.Register(solver.Descriptor{
		Name: "pxy", Kind: solver.KindDDS, Display: "PXY",
		Grade:     solver.Grade2Approx,
		Guarantee: "2-approximation via [x, y]-core enumeration",
		Paper:     "Ma et al. Core-Approx (baseline of the reproduced paper's Exp-5)",
		SolveDDS: func(ctx context.Context, d *graph.Directed, p solver.Params) (solver.DirectedResult, error) {
			return toSolver(PXY(d, p.Workers)), nil
		},
	})
	solver.Register(solver.Descriptor{
		Name: "pbs", Kind: solver.KindDDS, Display: "PBS",
		Grade:     solver.Grade2Approx,
		Guarantee: "2-approximation via the O(n²)-ratio Charikar sweep",
		Paper:     "Charikar directed sweep (baseline of the reproduced paper's Exp-5)",
		Budgeted:  true,
		SolveDDS: func(ctx context.Context, d *graph.Directed, p solver.Params) (solver.DirectedResult, error) {
			r, err := PBSCtx(ctx, d, p.Workers, p.Budget)
			return toSolver(r), err
		},
	})
	solver.Register(solver.Descriptor{
		Name: "pfks", Kind: solver.KindDDS, Display: "PFKS",
		Grade:     solver.Grade2Approx,
		Guarantee: "2-approximation via the fixed n-ratio Khuller–Saha sweep",
		Paper:     "Khuller–Saha, fixed (baseline of the reproduced paper's Exp-5)",
		Budgeted:  true,
		SolveDDS: func(ctx context.Context, d *graph.Directed, p solver.Params) (solver.DirectedResult, error) {
			r, err := PFKSCtx(ctx, d, p.Workers, p.Budget)
			return toSolver(r), err
		},
	})
	solver.Register(solver.Descriptor{
		Name: "pbd", Kind: solver.KindDDS, Display: "PBD",
		Grade:     solver.Grade2Approx,
		Guarantee: "2δ(1+ε)-approximation via directed batch peeling (Options.Delta/Epsilon, defaults 2.0/1.0)",
		Paper:     "Bahmani et al., directed (baseline of the reproduced paper's Exp-5)",
		Budgeted:  true,
		SolveDDS: func(ctx context.Context, d *graph.Directed, p solver.Params) (solver.DirectedResult, error) {
			r, err := PBDCtx(ctx, d, p.Delta, p.Epsilon, p.Workers, p.Budget)
			return toSolver(r), err
		},
	})
	solver.Register(solver.Descriptor{
		Name: "pfw", Kind: solver.KindDDS, Display: "PFW",
		Grade:     solver.GradeEps,
		Guarantee: "(1+ε)-approximation as directed Frank–Wolfe sweeps grow (Options.Iterations, default 100)",
		Paper:     "Danisch–Chan–Sozio, directed (baseline of the reproduced paper's Exp-5)",
		Budgeted:  true,
		SolveDDS: func(ctx context.Context, d *graph.Directed, p solver.Params) (solver.DirectedResult, error) {
			r, err := PFWCtx(ctx, d, p.Iterations, p.Workers, p.Budget)
			return toSolver(r), err
		},
	})
	solver.Register(solver.Descriptor{
		Name: "exact", Kind: solver.KindDDS, Display: "Exact",
		Grade:     solver.GradeExact,
		Guarantee: "exact via the ratio-enumerating parameterized min-cut search",
		Paper:     "Khuller–Saha flow formulation; the reproduced paper's exactness baseline",
		Serial:    true, Degradable: true,
		SolveDDS: func(ctx context.Context, d *graph.Directed, p solver.Params) (solver.DirectedResult, error) {
			r, err := ExactCtx(ctx, d)
			return toSolver(r), err
		},
	})
	solver.Register(solver.Descriptor{
		Name: "exact-pruned", Kind: solver.KindDDS, Display: "Exact-Pruned",
		Grade:      solver.GradeExact,
		Guarantee:  "exact: PWC lower bound prunes to the ⌈ρ̃²/4⌉-induced subgraph before the flow search",
		Paper:      "core-pruned variant of the Khuller–Saha flow search",
		Degradable: true,
		SolveDDS: func(ctx context.Context, d *graph.Directed, p solver.Params) (solver.DirectedResult, error) {
			r, err := ExactPrunedCtx(ctx, d, p.Workers)
			return toSolver(r), err
		},
	})
	solver.Register(solver.Descriptor{
		Name: "brute", Kind: solver.KindDDS, Display: "Brute",
		Grade:     solver.GradeExact,
		Guarantee: "exact by subset enumeration (≤13 vertices)",
		Paper:     "test oracle; Definition 4 evaluated directly",
		Serial:    true, Degradable: true,
		SolveDDS: func(ctx context.Context, d *graph.Directed, p solver.Params) (solver.DirectedResult, error) {
			return toSolver(BruteForce(d)), nil
		},
	})
}
