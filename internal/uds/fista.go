package uds

import (
	"context"
	"math"

	"repro/internal/cancel"
	"repro/internal/graph"
	"repro/internal/solver"
)

// DefaultFISTAIterations is the gradient-iteration budget used when the
// caller passes iters <= 0. FISTA's O(1/k²) rate reaches a small duality
// gap on the benchmark graphs well inside this budget; the early stop
// below usually fires first.
const DefaultFISTAIterations = 200

// DefaultFISTAEpsilon is the relative duality-gap early-stop threshold
// used when the caller passes eps <= 0: iteration ends once
// dual - primal <= eps * primal, certifying a (1+eps)-approximation.
const DefaultFISTAEpsilon = 0.01

// FISTA solves UDS by accelerated projected gradient descent on the
// edge-load splitting, following the Harb–Quanrud–Chekuri framing of
// densest subgraph as minimizing the squared vertex loads Σ r(v)² over
// fractional edge orientations. opts.Iterations bounds the gradient steps
// and opts.Epsilon is the duality-gap early stop; ctx is polled once per
// step, and an armed opts.Trace receives the phases, one convergence row
// per step, and the early-stop counter.
//
// Each edge carries a split x[i] in [0,1] (the share assigned to its U
// endpoint); the objective f(x) = Σ_v r(v)² is smooth with Lipschitz
// gradient constant at most 4Δ, so the step size is fixed at 1/(4Δ).
// Every iteration takes a gradient step from the momentum point, projects
// onto the box, and updates the Nesterov momentum sequence
// t_{k+1} = (1+√(1+4t_k²))/2.
//
// Per iteration the solver maintains a primal/dual certificate: the best
// density of any prefix-rounded subgraph seen so far (feasible, so a lower
// bound on ρ*) and the smallest max-load seen over any iterate (an upper
// bound on ρ* by LP duality). Both are best-so-far, so the recorded gap is
// non-increasing; iteration stops early once gap <= eps·primal, and the
// final answer is the better of prefix rounding and fractional peeling of
// the last iterate.
//
// All working vectors live in a pooled gradScratch; the per-iteration
// kernels are //dsd:hotpath and allocate nothing.
func FISTA(ctx context.Context, g *graph.Undirected, opts solver.Params) (solver.Result, error) {
	iters, eps, tr := opts.Iterations, opts.Epsilon, opts.Trace
	tr.SetAlgorithm("FISTA")
	n := g.N()
	if n == 0 {
		return solver.Result{Algorithm: "FISTA"}, nil
	}
	if iters <= 0 {
		iters = DefaultFISTAIterations
	}
	if eps <= 0 {
		eps = DefaultFISTAEpsilon
	}
	edges := g.Edges()
	m := len(edges)
	if m == 0 {
		return solver.Result{Algorithm: "FISTA", Vertices: []int32{0}}, nil
	}
	var maxDeg int32
	for v := 0; v < n; v++ {
		if d := g.Degree(int32(v)); d > maxDeg {
			maxDeg = d
		}
	}

	s := getGradScratch(edges, n, opts.Workers)
	defer s.release()
	s.step = 1.0 / (4.0 * float64(maxDeg))
	for i := range s.x {
		s.x[i], s.xPrev[i], s.y[i] = 0.5, 0.5, 0.5
	}
	tMom := 1.0
	bestLB, bestUB := -1.0, math.Inf(1)
	var bestSet []int32
	done := 0

	endIters := tr.StartPhase("fista-iterations")
	for k := 0; k < iters; k++ {
		if err := cancel.Check(ctx); err != nil {
			endIters()
			return solver.Result{}, err
		}
		tMom = s.fistaIterate(tMom)
		done = k + 1

		// Certificate from the feasible iterate x (not the momentum point,
		// which can sit outside the box before projection).
		s.recomputeLoads(s.x)
		if ub := maxLoad(s.r); ub < bestUB {
			bestUB = ub
		}
		if set, lb := s.densestPrefix(); lb > bestLB {
			bestLB = lb
			bestSet = append(bestSet[:0], set...)
		}
		tr.AddConvergence(bestLB, bestUB)
		if bestUB-bestLB <= eps*bestLB {
			tr.Counter("fista_early_stop", 1)
			break
		}
	}
	endIters()

	// s.r currently holds the loads of the final iterate x.
	endPeel := tr.StartPhase("fractional-peeling")
	set, density := s.fractionalPeel(g, s.x)
	endPeel()
	if density > bestLB {
		bestSet = append(bestSet[:0], set...)
	}
	return solver.Result{
		Algorithm:  "FISTA",
		Vertices:   bestSet,
		Density:    g.InducedDensity(bestSet),
		Iterations: done,
	}, nil
}

// FracPeel solves UDS by running the Frank–Wolfe load sweeps of PFW and
// rounding the resulting fractional orientation with true fractional
// peeling instead of the prefix sweep, under PFW's cancellation contract
// and iteration budget; an armed opts.Trace receives the phases and one
// convergence row per sweep.
//
// Frank–Wolfe produces edge shares alpha and vertex loads; the
// fractional-peeling rounding then repeatedly deletes the vertex with the
// smallest remaining load, crediting each deleted edge's share back to the
// surviving endpoint, and returns the densest intermediate subgraph. The
// rounding dominates the prefix sweep (it re-ranks vertices as loads drop),
// so FracPeel's density is never below PFW's on the same load vector; the
// answer returned is the better of the two roundings.
func FracPeel(ctx context.Context, g *graph.Undirected, opts solver.Params) (solver.Result, error) {
	iters, tr := opts.Iterations, opts.Trace
	tr.SetAlgorithm("FracPeel")
	n := g.N()
	if n == 0 {
		return solver.Result{Algorithm: "FracPeel"}, nil
	}
	if iters <= 0 {
		iters = DefaultPFWIterations
	}
	edges := g.Edges()
	s := getGradScratch(edges, n, opts.Workers)
	defer s.release()
	endFW := tr.StartPhase("frank-wolfe")
	err := s.frankWolfe(ctx, iters, tr)
	endFW()
	if err != nil {
		return solver.Result{}, err
	}
	prefixView, prefixDensity := s.densestPrefix()
	set := append([]int32(nil), prefixView...)
	endPeel := tr.StartPhase("fractional-peeling")
	peelView, density := s.fractionalPeel(g, s.alpha)
	endPeel()
	if density > prefixDensity {
		set = append(set[:0], peelView...)
	}
	return solver.Result{
		Algorithm:  "FracPeel",
		Vertices:   set,
		Density:    g.InducedDensity(set),
		Iterations: iters,
	}, nil
}

// fractionalPeel rounds a fractional edge orientation (shares[i] = share of
// s.edges[i] on its U endpoint; s.r must hold the induced vertex loads) by
// simulating the peel: repeatedly remove the vertex with the smallest
// current load, and for each of its surviving edges subtract that edge's
// share from the other endpoint's load. The returned set is the suffix of
// the removal order with the highest edge density — a view into the
// scratch's kept buffer, valid until the next fractionalPeel call or
// release(). Unlike the static prefix sweep this re-ranks vertices as
// their neighborhoods thin out, which is what lets a good fractional
// solution round to the exact optimum.
//
//dsd:hotpath
func (s *gradScratch) fractionalPeel(g *graph.Undirected, shares []float64) (set []int32, density float64) {
	n := g.N()
	m := len(s.edges)
	if n == 0 {
		return nil, 0
	}
	edges, deg, inc := s.edges, s.deg, s.inc

	load := s.load
	copy(load, s.r)
	removed := s.removed
	for i := range removed {
		removed[i] = false
	}
	edgeAlive := s.edgeAlive
	for i := range edgeAlive {
		edgeAlive[i] = true
	}

	h := &s.heap
	*h = (*h)[:0]
	for v := 0; v < n; v++ {
		h.push(int32(v), load[v])
	}

	order := s.peelOrder[:0]
	edgesLeft := int64(m)
	bestDensity := -1.0
	bestRemoved := 0
	for len(order) < n {
		v, key, ok := h.pop()
		if !ok {
			break
		}
		if removed[v] || key != load[v] {
			continue // stale entry; the fresher key is still queued
		}
		removed[v] = true
		order = append(order, v) //dsd:alloc-ok peelOrder capacity pre-sized to n in getGradScratch
		for at := deg[v]; at < deg[v+1]; at++ {
			i := inc[at]
			if !edgeAlive[i] {
				continue
			}
			edgeAlive[i] = false
			edgesLeft--
			e := edges[i]
			other, share := e.V, 1-shares[i]
			if e.V == v {
				other, share = e.U, shares[i]
			}
			if !removed[other] {
				load[other] -= share
				h.push(other, load[other])
			}
		}
		if rest := n - len(order); rest > 0 {
			if d := float64(edgesLeft) / float64(rest); d > bestDensity {
				bestDensity = d
				bestRemoved = len(order)
			}
		}
	}
	if bestDensity < 0 {
		// Only possible when every pop left an empty remainder (n == 1):
		// fall back to the whole vertex set.
		all := s.kept[:n]
		for v := range all {
			all[v] = int32(v)
		}
		return all, g.Density()
	}
	// Re-derive the kept suffix in ascending vertex order: un-mark, then
	// re-mark only the prefix that was peeled before the best point.
	for i := range removed {
		removed[i] = false
	}
	for _, v := range order[:bestRemoved] {
		removed[v] = true
	}
	kept := s.kept[:0]
	for v := 0; v < n; v++ {
		if !removed[v] {
			kept = append(kept, int32(v)) //dsd:alloc-ok kept capacity pre-sized to n in getGradScratch
		}
	}
	return kept, bestDensity
}

// loadEntry is one (vertex, load) pair queued in a loadHeap.
type loadEntry struct {
	v   int32
	key float64
}

// loadHeap is a lazy min-heap of (vertex, load) pairs: updated loads are
// pushed as new entries and stale ones are skipped at pop time by comparing
// the stored key against the live load.
type loadHeap []loadEntry

func (h *loadHeap) push(v int32, key float64) {
	*h = append(*h, loadEntry{v, key}) //dsd:alloc-ok getGradScratch pre-sizes the heap to n+m+1, the push-count ceiling
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent].key <= (*h)[i].key {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func (h *loadHeap) pop() (v int32, key float64, ok bool) {
	if len(*h) == 0 {
		return 0, 0, false
	}
	top := (*h)[0]
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	*h = (*h)[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(*h) && (*h)[l].key < (*h)[smallest].key {
			smallest = l
		}
		if r < len(*h) && (*h)[r].key < (*h)[smallest].key {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top.v, top.key, true
}
