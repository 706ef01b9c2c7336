package uds

import "repro/internal/solver"

// The UDS lineup registers itself at init time: the paper's Exp-1
// algorithms, the exact solvers, and the convex-programming pair. Each
// descriptor names its solver function directly. Order here is the order
// every listing (CLI -algorithms, docs table, error messages) presents.
func init() {
	solver.Register(solver.Descriptor{
		Name: "pkmc", Kind: solver.KindUDS, Display: "PKMC",
		Grade:        solver.Grade2Approx,
		Guarantee:    "2-approximation: the k*-core's density is at least ρ*/2 (Lemma 1)",
		Paper:        "Algorithm 2 (the reproduced paper) with in-place sweeps and a certified k*-core stop",
		TraceColumns: []string{"phases", "iterations", "counters"},
		Default:      true, DegradeRank: 2, KStarCore: true,
		SolveUDS: PKMC,
	})
	solver.Register(solver.Descriptor{
		Name: "pkmc-sync", Kind: solver.KindUDS, Display: "PKMC-Sync",
		Grade:        solver.Grade2Approx,
		Guarantee:    "2-approximation: the k*-core's density is at least ρ*/2 (Lemma 1)",
		Paper:        "Algorithm 2 as published (synchronous sweeps, Theorem-1 stop)",
		TraceColumns: []string{"phases", "iterations", "counters"},
		KStarCore:    true,
		SolveUDS:     PKMCSync,
	})
	solver.Register(solver.Descriptor{
		Name: "local", Kind: solver.KindUDS, Display: "Local",
		Grade:        solver.Grade2Approx,
		Guarantee:    "2-approximation via full h-index core decomposition",
		Paper:        "Sariyüce et al. (baseline of the reproduced paper's Exp-1)",
		TraceColumns: []string{"phases", "iterations", "counters"},
		KStarCore:    true,
		SolveUDS:     Local,
	})
	solver.Register(solver.Descriptor{
		Name: "pkc", Kind: solver.KindUDS, Display: "PKC",
		Grade:     solver.Grade2Approx,
		Guarantee: "2-approximation via parallel level peeling",
		Paper:     "Kabir–Madduri (baseline of the reproduced paper's Exp-1)",
		KStarCore: true,
		SolveUDS:  PKC,
	})
	solver.Register(solver.Descriptor{
		Name: "bz", Kind: solver.KindUDS, Display: "BZ",
		Grade:     solver.Grade2Approx,
		Guarantee: "2-approximation via serial bucket-queue k*-core",
		Paper:     "Batagelj–Zaveršnik (baseline of the reproduced paper's Exp-1)",
		Serial:    true, KStarCore: true,
		SolveUDS: BZ,
	})
	solver.Register(solver.Descriptor{
		Name: "charikar", Kind: solver.KindUDS, Display: "Charikar",
		Grade:     solver.Grade2Approx,
		Guarantee: "2-approximation via greedy min-degree peeling",
		Paper:     "Charikar (APPROX 2000)",
		Serial:    true,
		SolveUDS:  Charikar,
	})
	solver.Register(solver.Descriptor{
		Name: "greedypp", Kind: solver.KindUDS, Display: "Greedy++",
		Grade:     solver.Grade2Approx,
		Guarantee: "2-approximation, converging toward exact as rounds grow (Options.Iterations, default 16)",
		Paper:     "Boob et al. \"Flowless\" (WWW 2020)",
		Serial:    true, DegradeRank: 1,
		SolveUDS: GreedyPP,
	})
	solver.Register(solver.Descriptor{
		Name: "pbu", Kind: solver.KindUDS, Display: "PBU",
		Grade:     solver.Grade2Approx,
		Guarantee: "2(1+ε)-approximation via batch peeling (Options.Epsilon, default 0.5)",
		Paper:     "Bahmani et al. (baseline of the reproduced paper's Exp-1)",
		SolveUDS:  PBU,
	})
	solver.Register(solver.Descriptor{
		Name: "pfw", Kind: solver.KindUDS, Display: "PFW",
		Grade:     solver.GradeEps,
		Guarantee: "(1+ε)-approximation as Frank–Wolfe sweeps grow (Options.Iterations, default 100)",
		Paper:     "Danisch–Chan–Sozio (baseline of the reproduced paper's Exp-1)",
		SolveUDS:  PFW,
	})
	solver.Register(solver.Descriptor{
		Name: "fista", Kind: solver.KindUDS, Display: "FISTA",
		Grade:        solver.GradeEps,
		Guarantee:    "(1+ε)-approximation certified per iteration by the duality gap (Options.Epsilon, default 0.01)",
		Paper:        "Harb–Quanrud–Chekuri (NeurIPS 2022) accelerated-gradient framing",
		TraceColumns: []string{"phases", "convergence", "counters"},
		SolveUDS:     FISTA,
	})
	solver.Register(solver.Descriptor{
		Name: "fracpeel", Kind: solver.KindUDS, Display: "FracPeel",
		Grade:        solver.GradeEps,
		Guarantee:    "(1+ε)-approximation: Frank–Wolfe loads rounded by fractional peeling, never below PFW's prefix rounding",
		Paper:        "Danisch–Chan–Sozio loads + Harb et al. fractional-peeling rounding",
		TraceColumns: []string{"phases", "convergence"},
		SolveUDS:     FracPeel,
	})
	solver.Register(solver.Descriptor{
		Name: "exact-pruned", Kind: solver.KindUDS, Display: "Exact-Pruned",
		Grade:        solver.GradeExact,
		Guarantee:    "exact: PKMC lower bound prunes to the ⌈ρ̃⌉-core, then density-jump min-cuts",
		Paper:        "Fang et al. (the reproduced paper's [6])",
		TraceColumns: []string{"phases", "iterations", "counters"},
		Degradable:   true,
		SolveUDS:     ExactPruned,
	})
}
