package dds

import (
	"context"
	"math"
	"math/bits"

	"repro/internal/cancel"
	"repro/internal/graph"
	"repro/internal/maxflow"
	"repro/internal/solver"
)

// Exact solves the DDS problem exactly via the Charikar/Khuller–Saha
// parametric flow approach as organized by Ma et al.: for each candidate
// ratio c = a/b of |S|/|T| (all O(n²) distinct values), binary-search the
// density g; each probe is one min-cut on a project-selection network in
// which every arc is a unit-profit item requiring its tail in S (penalty
// g/(2√c) per S vertex) and its head in T (penalty g·√c/2 per T vertex).
// AM–GM makes every ratio's probe a lower bound on ρ* and the true ratio's
// probe tight, so the max over ratios is exact.
//
// Cost: O(n² log n) max-flows — an oracle for small graphs (n up to a few
// hundred), matching its role in the paper (exact DDS solvers are
// impractical at scale, which is why 2-approximations exist).
//
// Exact runs under cooperative cancellation: ctx is polled between
// candidate ratios, between the binary-search probes within a ratio, and
// inside each min-cut, returning a wrapped cancel.ErrCanceled once it is
// done. A nil ctx never cancels.
func Exact(ctx context.Context, d *graph.Directed, _ solver.Params) (solver.DirectedResult, error) {
	n := d.N()
	if n == 0 || d.M() == 0 {
		return solver.DirectedResult{Algorithm: "Exact"}, nil
	}
	arcs := d.Arcs()
	ratios := map[float64]struct{}{}
	for a := 1; a <= n; a++ {
		for b := 1; b <= n; b++ {
			ratios[float64(a)/float64(b)] = struct{}{}
		}
	}
	best := solver.DirectedResult{Algorithm: "Exact", Density: -1}
	for c := range ratios {
		s, t, density, err := exactForRatio(ctx, d, arcs, c)
		if err != nil {
			return solver.DirectedResult{}, err
		}
		if density > best.Density {
			best.S, best.T, best.Density = s, t, density
		}
	}
	if best.Density < 0 {
		best.Density = 0
	}
	best.Iterations = len(ratios)
	return best, nil
}

// exactForRatio binary-searches the largest g for which some (S, T) with
// the AM-GM-averaged denominator at ratio c has value above g, and returns
// that pair. The returned density is the true ρ(S, T) of the pair.
func exactForRatio(ctx context.Context, d *graph.Directed, arcs []graph.Edge, c float64) (s, t []int32, density float64, err error) {
	n := d.N()
	m := len(arcs)
	lo, hi := 0.0, math.Sqrt(float64(m))+1
	// Densities at a fixed ratio are separated by Ω(1/(n²(n+1)²)); iterate
	// enough halvings to isolate the optimum.
	gap := 1.0 / (float64(n) * float64(n) * float64(n+1) * float64(n+1))
	var bestS, bestT []int32
	for hi-lo >= gap {
		g := (lo + hi) / 2
		cs, ct, err := ratioDenserThan(ctx, d, arcs, c, g)
		if err != nil {
			return nil, nil, -1, err
		}
		if len(cs) == 0 || len(ct) == 0 {
			hi = g
		} else {
			lo = g
			bestS, bestT = cs, ct
		}
	}
	if bestS == nil {
		return nil, nil, -1, nil
	}
	return bestS, bestT, d.DensityST(bestS, bestT), nil
}

// ratioDenserThan builds the project-selection network for threshold g and
// ratio c and returns an (S, T) with E(S,T) − (g/2)(|S|/√c + √c|T|) > 0, or
// empty sets when none exists.
//
// Node layout: arc items 0..m-1, S-copies m..m+n-1, T-copies m+n..m+2n-1,
// source m+2n, sink m+2n+1.
func ratioDenserThan(ctx context.Context, d *graph.Directed, arcs []graph.Edge, c, g float64) (s, t []int32, err error) {
	if err := cancel.Check(ctx); err != nil {
		return nil, nil, err
	}
	n := d.N()
	m := len(arcs)
	src := int32(m + 2*n)
	snk := src + 1
	nw := maxflow.NewNetwork(m + 2*n + 2)
	nw.SetContext(ctx)
	sCost := g / (2 * math.Sqrt(c))
	tCost := g * math.Sqrt(c) / 2
	inf := float64(m + 1)
	for i, a := range arcs {
		nw.AddArc(src, int32(i), 1)
		nw.AddArc(int32(i), int32(m)+a.U, inf)
		nw.AddArc(int32(i), int32(m+n)+a.V, inf)
	}
	for v := 0; v < n; v++ {
		nw.AddArc(int32(m+v), snk, sCost)
		nw.AddArc(int32(m+n+v), snk, tCost)
	}
	nw.Solve(src, snk)
	if nw.Canceled() {
		return nil, nil, cancel.Check(ctx)
	}
	for _, node := range nw.MinCutSource(src) {
		switch {
		case node == src || int(node) < m:
		case int(node) < m+n:
			s = append(s, node-int32(m))
		case int(node) < m+2*n:
			t = append(t, node-int32(m+n))
		}
	}
	if len(s) == 0 || len(t) == 0 {
		return nil, nil, nil
	}
	return s, t, nil
}

// BruteForce enumerates every (S, T) pair of non-empty vertex subsets with
// bitmask adjacency — the oracle for Exact. It panics above 13 vertices
// (4^13 ≈ 67M pair evaluations is the practical ceiling).
func BruteForce(_ context.Context, d *graph.Directed, _ solver.Params) (solver.DirectedResult, error) {
	n := d.N()
	if n == 0 {
		return solver.DirectedResult{Algorithm: "BruteForce"}, nil
	}
	if n > 13 {
		panic("dds: BruteForce beyond 13 vertices")
	}
	outMask := make([]uint32, n)
	for u := int32(0); int(u) < n; u++ {
		for _, v := range d.OutNeighbors(u) {
			outMask[u] |= 1 << uint(v)
		}
	}
	best := solver.DirectedResult{Algorithm: "BruteForce", Density: -1}
	var bestSMask, bestTMask uint32
	for sm := uint32(1); sm < 1<<n; sm++ {
		sizeS := bits.OnesCount32(sm)
		// Gather the out-masks of S once per S.
		var members []uint32
		rest := sm
		for rest != 0 {
			u := bits.TrailingZeros32(rest)
			rest &^= 1 << uint(u)
			members = append(members, outMask[u])
		}
		for tm := uint32(1); tm < 1<<n; tm++ {
			var e int
			for _, om := range members {
				e += bits.OnesCount32(om & tm)
			}
			if e == 0 {
				continue
			}
			dd := float64(e) / math.Sqrt(float64(sizeS)*float64(bits.OnesCount32(tm)))
			if dd > best.Density {
				best.Density = dd
				bestSMask, bestTMask = sm, tm
			}
		}
	}
	if best.Density < 0 {
		best.Density = 0
		return best, nil
	}
	for v := 0; v < n; v++ {
		if bestSMask&(1<<uint(v)) != 0 {
			best.S = append(best.S, int32(v))
		}
		if bestTMask&(1<<uint(v)) != 0 {
			best.T = append(best.T, int32(v))
		}
	}
	return best, nil
}

// ExactPruned is the core-pruned exact DDS solver in the spirit of Ma et
// al.'s DC-Exact: a 2-approximation lower bound ρ̃ (from PWC) confines the
// optimal pair. For the optimum (S*, T*) with ratio c = |S*|/|T*|, every
// S*-vertex has at least ρ*/(2√c) out-arcs and every T*-vertex at least
// ρ*√c/2 in-arcs within E(S*, T*) (otherwise removing it would raise the
// density), so every arc of E(S*, T*) weighs at least ρ*²/4 >= ρ̃²/4 there
// — and by the peeling-survival argument the whole pair lives inside the
// ⌈ρ̃²/4⌉-induced subgraph. One arc peel shrinks the instance to that
// subgraph, and Exact's full ratio-enumeration flow search runs on the
// remnant. The remnant is still large on skewed graphs: 1.4k–80k arcs on
// the directed catalog models at scale 0.1, where the search does not
// finish in a minute, so exact answers stay within reach of small graphs
// only. It has Exact's cancellation contract; the PWC lower bound runs
// untraced.
func ExactPruned(ctx context.Context, d *graph.Directed, opts solver.Params) (solver.DirectedResult, error) {
	p := opts.Workers
	if d.M() == 0 {
		res, err := Exact(ctx, d, opts)
		res.Algorithm = "ExactPruned"
		return res, err
	}
	if err := cancel.Check(ctx); err != nil {
		return solver.DirectedResult{}, err
	}
	approx, _ := PWC(ctx, d, solver.Params{Workers: p}) // PWC never fails
	if approx.Density <= 0 {
		res, err := Exact(ctx, d, opts)
		res.Algorithm = "ExactPruned"
		return res, err
	}
	w0 := int64(approx.Density * approx.Density / 4)
	if w0 < 1 {
		w0 = 1
	}
	st := newWState(d, p)
	st.peelLevel(w0-1, p)
	sub, orig := st.liveSubgraph()
	res, err := Exact(ctx, sub, opts)
	if err != nil {
		return solver.DirectedResult{}, err
	}
	s := mapBack(res.S, orig)
	t := mapBack(res.T, orig)
	density := d.DensityST(s, t)
	// The pruned instance undercounts arcs that left the subgraph; the
	// pair is still optimal, but report its true density in d and keep
	// the approximation answer if the (impossible in theory, cheap to
	// guard) pruned search came back worse.
	if density < approx.Density {
		s, t, density = approx.S, approx.T, approx.Density
	}
	return solver.DirectedResult{
		Algorithm:  "ExactPruned",
		S:          s,
		T:          t,
		Density:    density,
		Iterations: res.Iterations,
	}, nil
}
