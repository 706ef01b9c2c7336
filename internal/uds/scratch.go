package uds

import (
	"context"
	"math"
	"sync"

	"repro/internal/cancel"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// gradPool recycles gradScratch values across solves, following the
// hScratch pattern in internal/core: a server answering UDS queries
// back-to-back reuses the same working vectors instead of re-making
// them per request.
var gradPool = sync.Pool{New: func() any { return new(gradScratch) }}

// gradScratch owns every working vector the gradient-descent UDS
// solvers (PFW, FISTA, FracPeel) need — iterates, edge shares, vertex
// loads, the edge incidence, and the rounding buffers — plus
// the per-iteration kernel parameters, with each block/element body
// prebound as a method value. Binding the bodies once at construction
// is what keeps the //dsd:hotpath kernels allocation-free: a fresh
// closure per sweep would heap-allocate its captures every iteration.
//
// Buffers are sized by getGradScratch and reused; the kernels
// themselves never grow them. Slices returned by densestPrefix and
// fractionalPeel are views into this scratch — copy them before
// release().
type gradScratch struct {
	edges []graph.Edge
	p     int

	// FISTA iterates: current, previous, and the momentum point the
	// gradient is taken at.
	x, xPrev, y []float64
	// Frank–Wolfe edge shares (alpha[i] = share of edges[i] on U).
	alpha []float64
	// Vertex loads of whichever share vector recomputeLoads saw last.
	r []float64

	// recomputeLoads state: the share vector being gathered.
	shares []float64

	// Edge incidence in CSR form: the edges at v are
	// inc[deg[v]:deg[v+1]], in ascending edge index.
	deg    []int32
	inc    []int32
	cursor []int32

	// FISTA kernel parameters: the fixed 1/(4Δ) step size and the
	// current Nesterov momentum coefficient.
	step, mom float64

	// Frank–Wolfe step size 2/(t+2) for the current sweep.
	gamma float64

	// densestPrefix scratch.
	order       []int32
	pos         []int32
	prefixEdges []int64

	// fractionalPeel scratch.
	load      []float64
	removed   []bool
	edgeAlive []bool
	heap      loadHeap
	peelOrder []int32
	kept      []int32

	// Prebound method values handed to the parallel runtime.
	gradFn, momFn, fwFn, loadFn func(int)
}

// getGradScratch checks a scratch out of the pool and sizes every
// buffer for a graph with n vertices and the given edge list. All
// allocation the solvers need happens here, up front.
func getGradScratch(edges []graph.Edge, n, p int) *gradScratch {
	s := gradPool.Get().(*gradScratch)
	m := len(edges)
	s.edges, s.p = edges, p
	if s.gradFn == nil {
		s.gradFn = s.gradStep
		s.momFn = s.momStep
		s.fwFn = s.fwStep
		s.loadFn = s.gatherLoad
	}
	s.x = growFloat(s.x, m)
	s.xPrev = growFloat(s.xPrev, m)
	s.y = growFloat(s.y, m)
	s.alpha = growFloat(s.alpha, m)
	s.r = growFloat(s.r, n)
	s.load = growFloat(s.load, n)
	s.order = growInt32(s.order, n)
	s.pos = growInt32(s.pos, n)
	s.prefixEdges = growInt64(s.prefixEdges, n)
	s.deg = growInt32(s.deg, n+1)
	s.inc = growInt32(s.inc, 2*m)
	s.cursor = growInt32(s.cursor, n)
	s.removed = growBool(s.removed, n)
	s.edgeAlive = growBool(s.edgeAlive, m)
	// Heap capacity covers the worst case: n initial entries plus at
	// most one decrease-key push per edge removal. The push kernel
	// relies on this never growing.
	if cap(s.heap) < n+m+1 {
		s.heap = make(loadHeap, 0, n+m+1)
	}
	s.heap = s.heap[:0]
	s.peelOrder = growInt32(s.peelOrder, n)
	s.kept = growInt32(s.kept, n)
	s.buildIncidence(n)
	return s
}

// buildIncidence fills the CSR edge incidence: deg becomes the offsets
// and inc lists each vertex's edge indices in ascending order.
func (s *gradScratch) buildIncidence(n int) {
	deg := s.deg
	for i := range deg {
		deg[i] = 0
	}
	for _, e := range s.edges {
		deg[e.U+1]++
		deg[e.V+1]++
	}
	for v := 0; v < n; v++ {
		deg[v+1] += deg[v]
	}
	cursor := s.cursor
	copy(cursor, deg[:n])
	for i, e := range s.edges {
		s.inc[cursor[e.U]] = int32(i)
		cursor[e.U]++
		s.inc[cursor[e.V]] = int32(i)
		cursor[e.V]++
	}
}

// release returns the scratch to the pool. Views handed out by
// densestPrefix/fractionalPeel become invalid.
func (s *gradScratch) release() { gradPool.Put(s) }

func growFloat(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

func growInt32(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	return b[:n]
}

func growInt64(b []int64, n int) []int64 {
	if cap(b) < n {
		return make([]int64, n)
	}
	return b[:n]
}

func growBool(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	return b[:n]
}

// recomputeLoads rebuilds r(v) = sum of edge shares in parallel, one
// vertex per task. Each vertex gathers its shares over the incidence —
// no atomics, which would contend on power-law hubs — in ascending edge
// order, the order a serial pass adds them in, so the loads do not
// depend on the worker count.
//
//dsd:hotpath
func (s *gradScratch) recomputeLoads(shares []float64) {
	s.shares = shares
	parallel.For(len(s.r), s.p, s.loadFn)
}

// gatherLoad sums the shares of the edges at vertex v.
//
//dsd:hotpath
func (s *gradScratch) gatherLoad(v int) {
	var sum float64
	for _, i := range s.inc[s.deg[v]:s.deg[v+1]] {
		if s.edges[i].U == int32(v) {
			sum += s.shares[i]
		} else {
			sum += 1 - s.shares[i]
		}
	}
	s.r[v] = sum
}

// fistaIterate runs one FISTA iteration: gradient step at the momentum
// point y, box projection, iterate swap, and Nesterov momentum update
// t_{k+1} = (1+√(1+4t_k²))/2. Returns the new momentum parameter; the
// loads of the new momentum point are NOT yet recomputed (the next
// iteration does that first).
//
//dsd:hotpath
func (s *gradScratch) fistaIterate(tMom float64) float64 {
	// Gradient at the momentum point: ∂f/∂x_i = 2(r(U) - r(V)).
	s.recomputeLoads(s.y)
	parallel.For(len(s.edges), s.p, s.gradFn)
	s.x, s.xPrev = s.xPrev, s.x
	tNext := (1 + math.Sqrt(1+4*tMom*tMom)) / 2
	s.mom = (tMom - 1) / tNext
	parallel.For(len(s.edges), s.p, s.momFn)
	return tNext
}

// gradStep takes the projected gradient step for one edge, writing into
// xPrev (which fistaIterate swaps into x).
//
//dsd:hotpath
func (s *gradScratch) gradStep(i int) {
	e := s.edges[i]
	v := s.y[i] - s.step*2*(s.r[e.U]-s.r[e.V])
	if v < 0 {
		v = 0
	} else if v > 1 {
		v = 1
	}
	s.xPrev[i] = v
}

// momStep moves one edge's momentum point: y = x + mom·(x - xPrev).
//
//dsd:hotpath
func (s *gradScratch) momStep(i int) {
	s.y[i] = s.x[i] + s.mom*(s.x[i]-s.xPrev[i])
}

// fwIterate runs one Frank–Wolfe sweep: every edge moves its load
// toward the currently lighter endpoint with step size 2/(t+2), then
// the loads are rebuilt.
//
//dsd:hotpath
func (s *gradScratch) fwIterate(t int) {
	s.gamma = 2.0 / float64(t+2)
	parallel.For(len(s.edges), s.p, s.fwFn)
	s.recomputeLoads(s.alpha)
}

// fwStep updates one edge's share toward its lighter endpoint.
//
//dsd:hotpath
func (s *gradScratch) fwStep(i int) {
	e := s.edges[i]
	var target float64 // optimal share for U: all of it to the lighter endpoint
	if s.r[e.U] < s.r[e.V] {
		target = 1
	} else if s.r[e.U] > s.r[e.V] {
		target = 0
	} else {
		target = 0.5
	}
	s.alpha[i] = (1-s.gamma)*s.alpha[i] + s.gamma*target
}

// frankWolfe runs the Frank–Wolfe sweeps shared by PFW and FracPeel
// over the scratch's alpha/r vectors. With a live trace it also records
// one duality-gap convergence row per sweep (best prefix-rounded
// density vs best max-load bound); the untraced path skips that work.
func (s *gradScratch) frankWolfe(ctx context.Context, iters int, tr *trace.Trace) error {
	for i := range s.alpha {
		s.alpha[i] = 0.5
	}
	s.recomputeLoads(s.alpha)
	bestLB, bestUB := -1.0, math.Inf(1)
	for t := 0; t < iters; t++ {
		if err := cancel.Check(ctx); err != nil {
			return err
		}
		s.fwIterate(t)
		if tr.Enabled() {
			if ub := maxLoad(s.r); ub < bestUB {
				bestUB = ub
			}
			if _, lb := s.densestPrefix(); lb > bestLB {
				bestLB = lb
			}
			tr.AddConvergence(bestLB, bestUB)
		}
	}
	return nil
}

// densestPrefix rounds the current load vector the simple way: sweep
// vertices in decreasing-load order and keep the densest prefix. The
// returned set is a view into the scratch's order buffer — copy it
// before the next densestPrefix call or release().
//
//dsd:hotpath
func (s *gradScratch) densestPrefix() (set []int32, density float64) {
	n := len(s.r)
	order := s.order
	for v := range order {
		order[v] = int32(v)
	}
	s.sortByLoadDesc(order)
	pos := s.pos
	for i, v := range order {
		pos[v] = int32(i)
	}
	prefixEdges := s.prefixEdges
	for i := range prefixEdges {
		prefixEdges[i] = 0
	}
	for _, e := range s.edges {
		at := pos[e.U]
		if pos[e.V] > at {
			at = pos[e.V]
		}
		prefixEdges[at]++
	}
	bestDensity := -1.0
	bestLen := 1
	var cum int64
	for i := 0; i < n; i++ {
		cum += prefixEdges[i]
		if d := float64(cum) / float64(i+1); d > bestDensity {
			bestDensity = d
			bestLen = i + 1
		}
	}
	return order[:bestLen], bestDensity
}

// sortByLoadDesc heap-sorts order into decreasing load order in place.
// sort.Slice would allocate (its closure plus reflect state) on every
// certificate round, so the kernel carries its own heapsort: extracting
// from a min-heap on the loads leaves the array sorted descending.
func (s *gradScratch) sortByLoadDesc(order []int32) {
	r := s.r
	n := len(order)
	for i := n/2 - 1; i >= 0; i-- {
		siftLoad(r, order, i, n)
	}
	for end := n - 1; end > 0; end-- {
		order[0], order[end] = order[end], order[0]
		siftLoad(r, order, 0, end)
	}
}

// siftLoad restores the min-heap property (keyed by r) below index i
// within order[:n].
func siftLoad(r []float64, order []int32, i, n int) {
	for {
		l, rt := 2*i+1, 2*i+2
		smallest := i
		if l < n && r[order[l]] < r[order[smallest]] {
			smallest = l
		}
		if rt < n && r[order[rt]] < r[order[smallest]] {
			smallest = rt
		}
		if smallest == i {
			return
		}
		order[i], order[smallest] = order[smallest], order[i]
		i = smallest
	}
}

// maxLoad returns the largest vertex load — an upper bound on the
// optimal density, since any subgraph's density is at most the maximum
// load of any fractional edge orientation restricted to it.
func maxLoad(r []float64) float64 {
	var ub float64
	for _, v := range r {
		if v > ub {
			ub = v
		}
	}
	return ub
}
