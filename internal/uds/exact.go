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
// Cost: O(log n) max-flows on a network with n+2 nodes and n+m arcs —
// practical up to ~10^5-edge graphs, and the oracle every approximation
// algorithm in this package is tested against.
//
// The binary search polls ctx between min-cut probes (and inside each flow
// computation, between blocking-flow phases) and returns a wrapped
// cancel.ErrCanceled once ctx is done. A nil ctx never cancels. An armed
// opts.Trace times the search as one "flow-search" phase and counts its
// probes.
func Exact(ctx context.Context, g *graph.Undirected, opts solver.Params) (solver.Result, error) {
	tr := opts.Trace
	tr.SetAlgorithm("Exact")
	endFlow := tr.StartPhase("flow-search")
	res, err := exact(ctx, g)
	endFlow()
	if err == nil {
		tr.Counter("flow_probes", int64(res.Iterations))
	}
	return res, err
}

// exact is Exact's untraced Goldberg search, shared with ExactPruned and
// ExactEpsilon so their own traces carry no second flow-search record.
func exact(ctx context.Context, g *graph.Undirected) (solver.Result, error) {
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
// ⌈ρ̃⌉-core, and runs the Goldberg binary search there — typically orders
// of magnitude fewer flow nodes than Exact on power-law graphs.
//
// It has Exact's cancellation contract. An armed opts.Trace splits the
// solve into the paper's natural phases — the PKMC lower bound
// ("approx-lower-bound", with its h-index sweeps), the single-threshold
// peel to the ⌈ρ̃⌉-core ("prune"), and the Goldberg flow binary search on
// the remnant ("flow-search") — plus the pruning and probe counters.
func ExactPruned(ctx context.Context, g *graph.Undirected, opts solver.Params) (solver.Result, error) {
	tr, p := opts.Trace, opts.Workers
	tr.SetAlgorithm("ExactPruned")
	if g.N() == 0 || g.M() == 0 {
		res, err := exact(ctx, g)
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
	tr.Counter("pruned_vertices", int64(g.N()-sub.N()))
	tr.Counter("flow_vertices", int64(sub.N()))
	tr.RaisePeak(int64(sub.N()))
	endFlow := tr.StartPhase("flow-search")
	res, err := exact(ctx, sub)
	endFlow()
	if err != nil {
		return solver.Result{}, err
	}
	tr.Counter("flow_probes", int64(res.Iterations))
	mapped := make([]int32, len(res.Vertices))
	for i, v := range res.Vertices {
		mapped[i] = orig[v]
	}
	return solver.Result{
		Algorithm:  "ExactPruned",
		Vertices:   mapped,
		Density:    g.InducedDensity(mapped),
		Iterations: res.Iterations,
		KStar:      approx.KStar,
	}, nil
}

// ExactEpsilon is the (1+ε)-approximate flow solver: the same Goldberg
// binary search as Exact, but the search stops once the density interval
// is within a relative ε instead of the exact 1/(n(n-1)) separation —
// trading the last bits of precision for a O(log(1/ε)) probe count, the
// trade-off behind the (1+ε) flow algorithms of the paper's related work
// (Chekuri et al. [29]). With the PKMC lower bound seeding the interval,
// a handful of min-cuts suffice.
//
// ε is opts.Epsilon (default 0.1), and cancellation follows Exact's
// contract.
func ExactEpsilon(ctx context.Context, g *graph.Undirected, opts solver.Params) (solver.Result, error) {
	eps := opts.Epsilon
	n := g.N()
	if n == 0 || g.M() == 0 {
		res, err := exact(ctx, g)
		res.Algorithm = "ExactEpsilon"
		return res, err
	}
	if eps <= 0 {
		eps = 0.1
	}
	if err := cancel.Check(ctx); err != nil {
		return solver.Result{}, err
	}
	approx := core.PKMC(g, opts.Workers, nil)
	lower := g.InducedDensity(approx.Vertices)
	edges := g.Edges()
	degs := g.Degrees()
	lo, hi := lower, 2*lower+1 // ρ* <= 2ρ̃ by Lemma 1
	best := approx.Vertices
	probes := 0
	for hi-lo > eps*lo {
		mid := (lo + hi) / 2
		probes++
		s, err := denserThan(ctx, n, edges, degs, mid)
		if err != nil {
			return solver.Result{}, err
		}
		if len(s) > 0 {
			lo = mid
			best = s
		} else {
			hi = mid
		}
	}
	return solver.Result{
		Algorithm:  "ExactEpsilon",
		Vertices:   best,
		Density:    g.InducedDensity(best),
		Iterations: probes,
		KStar:      approx.KStar,
	}, nil
}
