package dsd

import (
	"context"
	"time"

	"repro/internal/cancel"
	"repro/internal/core"
	"repro/internal/dds"
	"repro/internal/solver"
	"repro/internal/uds"
)

// ErrCanceled is the sentinel wrapped by SolveUDS and SolveDDS when
// Options.Ctx is canceled or its deadline passes before the solver
// finishes. The chain retains the context's own error, so
// errors.Is(err, context.DeadlineExceeded) distinguishes a timeout from an
// explicit cancel.
var ErrCanceled = cancel.ErrCanceled

// Algo names a densest-subgraph algorithm. The UDS and DDS families are
// disjoint; SolveUDS and SolveDDS reject algorithms from the wrong family.
type Algo string

// UDS algorithms (the paper's Exp-1 lineup plus the exact solver).
const (
	AlgoPKMC     Algo = "pkmc"      // parallel k*-core, in-place sweeps with a certified stop (the paper's Algorithm 2) — default
	AlgoPKMCSync Algo = "pkmc-sync" // the paper's Algorithm 2 as published: synchronous sweeps, Theorem-1 stop
	AlgoLocal    Algo = "local"     // full h-index convergence (Sariyüce et al.)
	AlgoPKC      Algo = "pkc"       // parallel level peeling (Kabir–Madduri)
	AlgoBZ       Algo = "bz"        // serial Batagelj–Zaveršnik k*-core
	AlgoCharikar Algo = "charikar"  // serial greedy peeling, 2-approx
	AlgoPBU      Algo = "pbu"       // Bahmani batch peeling, 2(1+ε)-approx
	AlgoPFW      Algo = "pfw"       // Frank–Wolfe, (1+ε)-approx
	// AlgoGreedyPP is the iterated peeling of Boob et al. ("Flowless",
	// the remaining 2-approximation row of the paper's Table 1): never
	// worse than Charikar, near-exact after a few dozen rounds
	// (Options.Iterations; default 16).
	AlgoGreedyPP Algo = "greedypp"
	// AlgoExactPruned is the exact solver: the core reduction of Fang et
	// al. (the paper's [6]) prunes to the ⌈ρ̃⌉-core using the PKMC lower
	// bound, then a density-jump min-cut search on the remnant returns the
	// maximal densest subgraph, usually in two min-cuts.
	AlgoExactPruned Algo = "exact-pruned"
	// AlgoFISTA is accelerated projected gradient descent on the edge-load
	// splitting (Harb et al.): a (1+ε)-approximation certified per
	// iteration by its primal/dual duality gap (ε from Options.Epsilon,
	// default 0.01), with per-iteration convergence trace rows.
	AlgoFISTA Algo = "fista"
	// AlgoFracPeel runs PFW's Frank–Wolfe load sweeps and rounds the
	// fractional orientation by true fractional peeling instead of the
	// static prefix sweep — never below PFW on the same iteration budget.
	AlgoFracPeel Algo = "fracpeel"
)

// DDS algorithms (the paper's Exp-5 lineup plus the exact solver).
const (
	AlgoPWC  Algo = "pwc"  // w*-induced subgraph route (the paper's Algorithms 3-4) — default
	AlgoPXY  Algo = "pxy"  // [x, y]-core enumeration (Ma et al. Core-Approx)
	AlgoPBS  Algo = "pbs"  // Charikar directed ratio sweep, O(n²) ratios
	AlgoPFKS Algo = "pfks" // fixed Khuller–Saha, n ratios
	AlgoPBD  Algo = "pbd"  // Bahmani directed batch peeling, 2δ(1+ε)-approx
	AlgoPFWD Algo = "pfw"  // directed Frank–Wolfe (same name; family decides)
	// AlgoExactPrunedDDS is the exact DDS solver: it prunes to the
	// ⌈ρ̃²/4⌉-induced subgraph using the PWC lower bound, then runs the
	// ratio-enumeration flow search on the remnant (small graphs only).
	AlgoExactPrunedDDS Algo = "exact-pruned"
)

// Options tunes a solver run. The zero value requests the paper's default
// configuration.
type Options struct {
	// Workers is the parallelism degree p; 0 means GOMAXPROCS. Serial
	// algorithms (charikar, bz) ignore it.
	Workers int
	// Epsilon is the accuracy knob of PBU (default 0.5) and PBD (default
	// 1.0) — the paper's settings — and FISTA's duality-gap stop (default
	// 0.01).
	Epsilon float64
	// Delta is PBD's ratio-grid base (default 2.0).
	Delta float64
	// Iterations bounds Frank–Wolfe sweeps (default 100).
	Iterations int
	// Budget caps wall time for the slow baselines (PBS, PFKS, PBD, PFW);
	// 0 means unlimited. Mirrors the paper's 10⁵-second cap. A budget
	// expiry is not an error: the solver returns its best-so-far answer
	// with TimedOut set.
	Budget time.Duration
	// Ctx requests cooperative cancellation: the long-running solvers (the
	// exact flow searches, Frank–Wolfe sweeps, Greedy++ rounds, and
	// the budgeted ratio sweeps) poll it at iteration boundaries and
	// SolveUDS/SolveDDS return a wrapped ErrCanceled once it is done. For
	// the budgeted DDS baselines a Ctx deadline also tightens Budget, so a
	// request-scoped timeout bounds them even when Budget is unset. nil
	// means never cancel.
	Ctx context.Context
	// Trace, when non-nil, opts this solve into the observability layer:
	// the solver records phase wall times, per-iteration convergence
	// (PKMC/Local h-index sweeps), candidate-set sizes, and the parallel
	// runtime's work counters into it. nil (the default) keeps every
	// solver on its uninstrumented fast path.
	Trace *Trace
}

// Result is a solved UDS instance.
type Result struct {
	Algorithm  string
	Vertices   []int32 // the returned vertex set S
	Density    float64 // |E(S)|/|S|
	KStar      int32   // k* when the algorithm is core-based, else 0
	Iterations int
}

// DirectedResult is a solved DDS instance.
type DirectedResult struct {
	Algorithm  string
	S, T       []int32 // the returned source and target sets
	Density    float64 // |E(S,T)|/sqrt(|S|·|T|)
	XStar      int32   // cn-pair when the algorithm is core-based
	YStar      int32
	Iterations int
	TimedOut   bool // a budgeted baseline hit Options.Budget
}

// params converts the public Options into the registry's solver-facing
// parameter struct. budget arrives already tightened by any Ctx deadline.
func params(opts Options, budget time.Duration) solver.Params {
	return solver.Params{
		Workers:    opts.Workers,
		Epsilon:    opts.Epsilon,
		Delta:      opts.Delta,
		Iterations: opts.Iterations,
		Budget:     budget,
		Trace:      opts.Trace,
	}
}

// SolveUDS runs the chosen undirected densest-subgraph algorithm. An empty
// algo selects PKMC, the paper's contribution. Dispatch goes through the
// solver registry (see Algorithms), so an unknown name returns an
// *AlgorithmError wrapping ErrUnknownAlgorithm with the valid list attached.
//
// A panic inside the solver (including panics raised in parallel worker
// goroutines, which internal/parallel re-raises here) is recovered and
// returned as a *PanicError wrapping ErrInternal — a solver bug degrades to
// a failed call, not a dead process.
func SolveUDS(g *Graph, algo Algo, opts Options) (res Result, err error) {
	defer recoverToError(&err)
	desc, ok := solver.Lookup(solver.KindUDS, string(algo))
	if !ok {
		return Result{}, unknownAlgorithm(ProblemUDS, algo)
	}
	ctx := opts.Ctx
	if err := cancel.Check(ctx); err != nil {
		return Result{}, err
	}
	// Arm the runtime counters and time the whole solve; traced solvers
	// add their finer-grained phases inside.
	tr := opts.Trace
	defer tr.Begin()()
	r, err := desc.SolveUDS(ctx, g.g, params(opts, opts.Budget))
	if err != nil {
		return Result{}, err
	}
	if tr != nil && tr.Algorithm == "" {
		tr.SetAlgorithm(r.Algorithm)
	}
	return Result{
		Algorithm:  r.Algorithm,
		Vertices:   r.Vertices,
		Density:    r.Density,
		KStar:      r.KStar,
		Iterations: r.Iterations,
	}, nil
}

// SolveDDS runs the chosen directed densest-subgraph algorithm. An empty
// algo selects PWC, the paper's contribution. Unknown names and solver
// panics surface exactly as in SolveUDS.
func SolveDDS(d *Digraph, algo Algo, opts Options) (res DirectedResult, err error) {
	defer recoverToError(&err)
	desc, ok := solver.Lookup(solver.KindDDS, string(algo))
	if !ok {
		return DirectedResult{}, unknownAlgorithm(ProblemDDS, algo)
	}
	ctx := opts.Ctx
	if err := cancel.Check(ctx); err != nil {
		return DirectedResult{}, err
	}
	// A request deadline bounds the budgeted baselines too: the sweep stops
	// at whichever of Budget and the Ctx deadline comes first. Budget
	// winning keeps the best-so-far answer; Ctx winning surfaces as a
	// wrapped ErrCanceled from the solver.
	budget := opts.Budget
	if ctx != nil {
		if dl, ok := ctx.Deadline(); ok {
			if rem := time.Until(dl); budget <= 0 || rem < budget {
				budget = rem
			}
		}
	}
	tr := opts.Trace
	defer tr.Begin()()
	r, err := desc.SolveDDS(ctx, d.d, params(opts, budget))
	if err != nil {
		return DirectedResult{}, err
	}
	if tr != nil && tr.Algorithm == "" {
		tr.SetAlgorithm(r.Algorithm)
	}
	return DirectedResult{
		Algorithm:  r.Algorithm,
		S:          r.S,
		T:          r.T,
		Density:    r.Density,
		XStar:      r.XStar,
		YStar:      r.YStar,
		Iterations: r.Iterations,
		TimedOut:   r.TimedOut,
	}, nil
}

// CoreNumbers computes the core number of every vertex (parallel h-index
// decomposition). workers <= 0 means GOMAXPROCS.
func CoreNumbers(g *Graph, workers int) []int32 {
	return core.Local(g.g, workers, nil).CoreNum
}

// KCore returns the vertices of the k-core.
func KCore(g *Graph, k int32, workers int) []int32 {
	return core.KCore(CoreNumbers(g, workers), k)
}

// KStarCore returns k* and the k*-core vertex set using PKMC (the fast
// route that avoids full decomposition).
func KStarCore(g *Graph, workers int) (int32, []int32) {
	res := core.PKMC(g.g, workers, nil)
	return res.KStar, res.Vertices
}

// XYCore returns the [x, y]-core of a digraph: the maximal (S, T) with all
// S out-degrees >= x and all T in-degrees >= y within E(S, T).
func XYCore(d *Digraph, x, y int32) (s, t []int32) {
	return dds.XYCore(d.d, x, y)
}

// WStar returns the maximum induce-number w* of a digraph and the vertex
// set of its w*-induced subgraph (Definitions 8-10 of the paper), in
// ascending order.
func WStar(d *Digraph, workers int) (int64, []int32) {
	res := dds.WStarSubgraph(d.d, workers)
	return res.WStar, res.Original
}

// CNPairSkyline returns the maximal [x, y]-core pairs of a digraph (every
// core is dominated by a skyline pair; the maximum x·y over the skyline is
// x*·y*, at most w*) — the complete directed core-structure summary.
func CNPairSkyline(d *Digraph, workers int) [][2]int32 {
	return dds.CNPairSkyline(d.d, workers)
}

// DensityTier is one layer of DensityFriendlyDecomposition.
type DensityTier struct {
	Vertices []int32
	Density  float64
}

// DensityFriendlyDecomposition peels the exact densest subgraph, then the
// densest subgraph of the remainder, and so on (Tatti & Gionis / Danisch
// et al., the paper's related work [23], [34]) — a whole-graph profile of
// dense regions with non-increasing tier densities. Exact per tier
// (core-pruned flow), so intended for graphs up to ~10^5 edges.
func DensityFriendlyDecomposition(g *Graph, workers int) []DensityTier {
	var out []DensityTier
	for _, t := range uds.DensityFriendly(g.g, workers) {
		out = append(out, DensityTier{Vertices: t.Vertices, Density: t.Density})
	}
	return out
}
