package dds

import "repro/internal/solver"

// The DDS lineup registers itself at init time: the paper's Exp-5
// algorithms plus the exact solvers. Each descriptor names its solver
// function directly. Order here is the presentation order everywhere
// downstream.
func init() {
	solver.Register(solver.Descriptor{
		Name: "pwc", Kind: solver.KindDDS, Display: "PWC",
		Grade:        solver.Grade2Approx,
		Guarantee:    "2-approximation: the w*-induced subgraph's density is at least ρ*/2 (Theorem 3)",
		Paper:        "Algorithms 3–4 (the reproduced paper)",
		TraceColumns: []string{"phases", "counters", "work"},
		Default:      true, DegradeRank: 1,
		SolveDDS: PWC,
	})
	solver.Register(solver.Descriptor{
		Name: "pxy", Kind: solver.KindDDS, Display: "PXY",
		Grade:     solver.Grade2Approx,
		Guarantee: "2-approximation via [x, y]-core enumeration",
		Paper:     "Ma et al. Core-Approx (baseline of the reproduced paper's Exp-5)",
		SolveDDS:  PXY,
	})
	solver.Register(solver.Descriptor{
		Name: "pbs", Kind: solver.KindDDS, Display: "PBS",
		Grade:     solver.Grade2Approx,
		Guarantee: "2-approximation via the O(n²)-ratio Charikar sweep",
		Paper:     "Charikar directed sweep (baseline of the reproduced paper's Exp-5)",
		Budgeted:  true,
		SolveDDS:  PBS,
	})
	solver.Register(solver.Descriptor{
		Name: "pfks", Kind: solver.KindDDS, Display: "PFKS",
		Grade:     solver.Grade2Approx,
		Guarantee: "2-approximation via the fixed n-ratio Khuller–Saha sweep",
		Paper:     "Khuller–Saha, fixed (baseline of the reproduced paper's Exp-5)",
		Budgeted:  true,
		SolveDDS:  PFKS,
	})
	solver.Register(solver.Descriptor{
		Name: "pbd", Kind: solver.KindDDS, Display: "PBD",
		Grade:     solver.Grade2Approx,
		Guarantee: "2δ(1+ε)-approximation via directed batch peeling (Options.Delta/Epsilon, defaults 2.0/1.0)",
		Paper:     "Bahmani et al., directed (baseline of the reproduced paper's Exp-5)",
		Budgeted:  true,
		SolveDDS:  PBD,
	})
	solver.Register(solver.Descriptor{
		Name: "pfw", Kind: solver.KindDDS, Display: "PFW",
		Grade:     solver.GradeEps,
		Guarantee: "(1+ε)-approximation as directed Frank–Wolfe sweeps grow (Options.Iterations, default 100)",
		Paper:     "Danisch–Chan–Sozio, directed (baseline of the reproduced paper's Exp-5)",
		Budgeted:  true,
		SolveDDS:  PFW,
	})
	solver.Register(solver.Descriptor{
		Name: "exact-pruned", Kind: solver.KindDDS, Display: "Exact-Pruned",
		Grade:      solver.GradeExact,
		Guarantee:  "exact: PWC lower bound prunes to the ⌈ρ̃²/4⌉-induced subgraph before the flow search",
		Paper:      "core-pruned variant of the Khuller–Saha flow search",
		Degradable: true,
		SolveDDS:   ExactPruned,
	})
}
