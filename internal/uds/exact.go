package uds

import (
	"context"

	"repro/internal/cancel"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/maxflow"
	"repro/internal/solver"
)

// Exact solves the UDS problem exactly with Goldberg's flow construction:
// binary search on the density threshold g, one min-cut per probe.
//
// Network for threshold g: source s, sink t, one node per vertex;
// s -> v with capacity deg(v); u <-> v with capacity 1 per edge;
// v -> t with capacity 2g. The source side of the min cut (minus s) is
// non-empty iff some subgraph has density > g. Candidate densities are
// ratios with denominators <= n, so the search stops once the interval is
// narrower than 1/(n(n-1)) and returns the last non-empty cut.
//
// Cost: O(log n) max-flows on a network with n+2 nodes and n+m arcs. It is
// not registered: it is the oracle ExactPruned and every approximation
// algorithm in this package are tested against.
//
// The binary search polls ctx between min-cut probes (and inside each flow
// computation, between blocking-flow phases) and returns a wrapped
// cancel.ErrCanceled once ctx is done. A nil ctx never cancels.
func Exact(ctx context.Context, g *graph.Undirected, _ solver.Params) (solver.Result, error) {
	n := g.N()
	if n == 0 {
		return solver.Result{Algorithm: "Exact"}, nil
	}
	if g.M() == 0 {
		return solver.Result{Algorithm: "Exact", Vertices: []int32{0}, Density: 0}, nil
	}
	edges := g.Edges()
	degs := g.Degrees()

	lo, hi := 0.0, float64(g.MaxDegree())
	gap := 1.0 / (float64(n) * float64(n-1))
	var best []int32
	probes := 0
	for hi-lo >= gap {
		mid := (lo + hi) / 2
		probes++
		s, err := denserThan(ctx, n, edges, degs, mid)
		if err != nil {
			return solver.Result{}, err
		}
		if len(s) == 0 {
			hi = mid
		} else {
			lo = mid
			best = s
		}
	}
	if best == nil {
		// ρ* <= first probe already failed down to gap: fall back to the
		// densest single edge (density 1/2 is the minimum positive value).
		best = []int32{edges[0].U, edges[0].V}
	}
	return solver.Result{
		Algorithm:  "Exact",
		Vertices:   best,
		Density:    g.InducedDensity(best),
		Iterations: probes,
	}, nil
}

// denserThan returns a vertex set inducing density > threshold, or nil.
// A non-nil error means ctx expired before the min-cut finished.
func denserThan(ctx context.Context, n int, edges []graph.Edge, degs []int32, threshold float64) ([]int32, error) {
	if err := cancel.Check(ctx); err != nil {
		return nil, err
	}
	// Node layout: 0..n-1 vertices, n = source, n+1 = sink.
	nw := maxflow.NewNetwork(n + 2)
	nw.SetContext(ctx)
	src, snk := int32(n), int32(n+1)
	for v := 0; v < n; v++ {
		if degs[v] > 0 {
			nw.AddArc(src, int32(v), float64(degs[v]))
		}
		nw.AddArc(int32(v), snk, 2*threshold)
	}
	for _, e := range edges {
		nw.AddArc(e.U, e.V, 1)
		nw.AddArc(e.V, e.U, 1)
	}
	nw.Solve(src, snk)
	if nw.Canceled() {
		return nil, cancel.Check(ctx)
	}
	side := nw.MinCutSource(src)
	out := make([]int32, 0, len(side))
	for _, v := range side {
		if v != src {
			out = append(out, v)
		}
	}
	return out, nil
}

// BruteForce solves UDS by enumerating all 2^n - 1 non-empty vertex
// subsets. It is the test oracle for Exact and panics above 20 vertices.
func BruteForce(g *graph.Undirected) solver.Result {
	n := g.N()
	if n == 0 {
		return solver.Result{Algorithm: "BruteForce"}
	}
	if n > 20 {
		panic("uds: BruteForce beyond 20 vertices")
	}
	var best []int32
	bestDensity := -1.0
	set := make([]int32, 0, n)
	for mask := 1; mask < 1<<n; mask++ {
		set = set[:0]
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				set = append(set, int32(v))
			}
		}
		if d := g.InducedDensity(set); d > bestDensity {
			bestDensity = d
			best = append([]int32(nil), set...)
		}
	}
	return solver.Result{Algorithm: "BruteForce", Vertices: best, Density: bestDensity}
}

// ExactPruned is the core-accelerated exact solver of Fang et al. (the
// paper's [6]): the densest subgraph is contained in the ⌈ρ*⌉-core, and any
// lower bound ρ̃ <= ρ* gives ⌈ρ̃⌉-core ⊇ ⌈ρ*⌉-core. It takes the k*-core
// 2-approximation as ρ̃ (so ρ̃ >= ρ*/2 >= k*/2), prunes the graph to the
// ⌈ρ̃⌉-core, and runs a density-jump (Dinkelbach) search of Goldberg
// min-cuts there — usually two cuts, where a binary search needs ~25.
//
// The search starts the bound at ρ̃ − 1/(2n′(n′−1)) on the n′-vertex
// remnant, so the bound is below ρ*, and moves it to the density of each
// non-empty cut until a cut is empty or no denser than the bound. The
// answer is D, the maximal densest subgraph (the union of all densest
// sets). A cut S taken at a bound g < ρ* maximizes the supermodular
// f(S) = |E(S)| − g|S|, so f(S ∪ D) + f(S ∩ D) >= f(S) + f(D) and
// f(S ∪ D) <= f(S) give f(S ∩ D) >= f(D). Every T ⊆ D has
// f(T) <= (ρ* − g)|T|, which is below f(D) unless T = D; so D ⊆ S, and
// ρ(S) > g because f(S) >= f(D) > 0. The bound therefore rises strictly
// through cuts that contain D until one has density ρ*, which is then D
// itself; the cut at g = ρ* is empty or ties, and the search returns D.
// Starting at ρ̃ itself would stop at once whenever the PKMC answer is
// densest but not maximal.
//
// It polls ctx between min-cuts (and inside each flow computation,
// between blocking-flow phases) and returns a wrapped cancel.ErrCanceled
// once ctx is done; a nil ctx never cancels. An armed opts.Trace splits
// the solve into the PKMC lower bound ("approx-lower-bound", with its
// h-index sweeps), the single-threshold peel to the ⌈ρ̃⌉-core ("prune"),
// and the min-cut search on the remnant ("flow-search"), plus the pruning
// and probe counters and the lower bound's density floor ("floor").
func ExactPruned(ctx context.Context, g *graph.Undirected, opts solver.Params) (solver.Result, error) {
	tr, p := opts.Trace, opts.Workers
	tr.SetAlgorithm("ExactPruned")
	if g.N() == 0 || g.M() == 0 {
		res, err := Exact(ctx, g, solver.Params{})
		res.Algorithm = "ExactPruned"
		return res, err
	}
	if err := cancel.Check(ctx); err != nil {
		return solver.Result{}, err
	}
	endApprox := tr.StartPhase("approx-lower-bound")
	approx := core.PKMC(g, p, tr)
	lower := g.InducedDensity(approx.Vertices) // ρ̃ <= ρ*
	endApprox()
	k := int32(lower)
	if float64(k) < lower {
		k++ // ⌈ρ̃⌉
	}
	// One peel at the single threshold ⌈ρ̃⌉ gives the ⌈ρ̃⌉-core; no other
	// core number is needed.
	endPrune := tr.StartPhase("prune")
	sub, orig := g.Induced(core.PeelTo(g, k))
	endPrune()
	n := sub.N()
	tr.Counter("pruned_vertices", int64(g.N()-n))
	tr.Counter("flow_vertices", int64(n))
	tr.RaisePeak(int64(n))
	endFlow := tr.StartPhase("flow-search")
	edges, degs := sub.Edges(), sub.Degrees()
	best := approx.Vertices
	bound := lower - 1/(2*float64(n)*float64(n-1))
	probes := 0
	for {
		probes++
		s, err := denserThan(ctx, n, edges, degs, bound)
		if err != nil {
			endFlow()
			return solver.Result{}, err
		}
		if len(s) == 0 {
			break
		}
		d := sub.InducedDensity(s)
		if d <= bound {
			break
		}
		best = make([]int32, len(s))
		for i, v := range s {
			best[i] = orig[v]
		}
		bound = d
	}
	endFlow()
	tr.Counter("flow_probes", int64(probes))
	return solver.Result{
		Algorithm:  "ExactPruned",
		Vertices:   best,
		Density:    g.InducedDensity(best),
		Iterations: probes,
		KStar:      approx.KStar,
	}, nil
}
