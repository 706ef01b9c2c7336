package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// hScratch hands out per-worker histogram buffers for the h-index kernels.
// Buffers are sized to maxDeg+2 once and reused across iterations, so the
// parallel sweeps allocate nothing in steady state.
type hScratch struct {
	pool sync.Pool
}

func newHScratch(maxDeg int32) *hScratch {
	size := int(maxDeg) + 2
	return &hScratch{pool: sync.Pool{New: func() any {
		b := make([]int32, size)
		return &b
	}}}
}

func (s *hScratch) get() *[]int32  { return s.pool.Get().(*[]int32) }
func (s *hScratch) put(b *[]int32) { s.pool.Put(b) }

// hIndexOf computes the h-index of the multiset {h[u] : u ∈ neighbors}: the
// largest k such that at least k neighbors have h-value >= k. buf must have
// length >= len(neighbors)+1 and is clobbered.
//
// The kernel is the counting form: clamp each neighbor value to d =
// len(neighbors), histogram, then scan the histogram downwards accumulating
// "how many neighbors have value >= k" until the count reaches k. O(d).
//
//dsd:hotpath
func hIndexOf(h []int32, neighbors []int32, buf []int32) int32 {
	d := len(neighbors)
	if d == 0 {
		return 0
	}
	cnt := buf[:d+1]
	clear(cnt)
	for _, u := range neighbors {
		cnt[min(h[u], int32(d))]++
	}
	return hIndexFromCounts(cnt)
}

// hIndexOfLoad is hIndexOf over a vector that other workers update in
// place: each neighbor value is one atomic load, which on amd64 is the
// same plain MOV hIndexOf issues.
//
//dsd:hotpath
func hIndexOfLoad(h []atomic.Int32, neighbors []int32, buf []int32) int32 {
	d := len(neighbors)
	if d == 0 {
		return 0
	}
	cnt := buf[:d+1]
	clear(cnt)
	for _, u := range neighbors {
		cnt[min(h[u].Load(), int32(d))]++
	}
	return hIndexFromCounts(cnt)
}

// hIndexFromCounts scans a clamped value histogram (cnt[x] neighbors
// with value x, x <= len(cnt)-1) downwards and returns the largest k
// with at least k values >= k.
//
//dsd:hotpath
func hIndexFromCounts(cnt []int32) int32 {
	var atLeast int32
	for k := int32(len(cnt) - 1); k >= 1; k-- {
		atLeast += cnt[k]
		if atLeast >= k {
			return k
		}
	}
	return 0
}

// hSweeper owns the state of the synchronous (Jacobi) h-index iteration:
// the current and next value vectors, the histogram scratch pool, and the
// block body prebound as a method value, so the steady-state sweep loop
// allocates nothing — a fresh closure per sweep would put every capture
// on the heap. Construct one per solve; sweep() until convergence.
type hSweeper struct {
	g       *graph.Undirected
	scratch *hScratch
	cur     []int32 // current h values; the converged vector after the last sweep
	next    []int32
	p       int

	changed  atomic.Int64
	deltaMax atomic.Int32
	body     func(lo, hi int)
}

func newHSweeper(g *graph.Undirected, p int) *hSweeper {
	n := g.N()
	s := &hSweeper{
		g:       g,
		scratch: newHScratch(g.MaxDegree()),
		cur:     make([]int32, n),
		next:    make([]int32, n),
		p:       p,
	}
	s.body = s.sweepBlock
	initDegrees(g, s.cur, p)
	return s
}

// sweep performs one synchronous h-index iteration over all vertices —
// next[v] = h-index of cur values over v's neighbors — then swaps the
// vectors. It returns how many vertices changed value and the largest
// single decrease (h-values are pointwise non-increasing, so the delta
// is always a drop), the convergence accounting the trace layer records.
//
//dsd:hotpath
func (s *hSweeper) sweep() (changed int64, maxDelta int32) {
	s.changed.Store(0)
	s.deltaMax.Store(0)
	parallel.ForBlocks(s.g.N(), s.p, parallel.DefaultGrain, s.body)
	s.cur, s.next = s.next, s.cur
	return s.changed.Load(), s.deltaMax.Load()
}

// sweepBlock is the sweep's block body, reached through the prebound
// method value (parallel.ForBlocks calls it per block, inline at p = 1).
//
//dsd:hotpath
func (s *hSweeper) sweepBlock(lo, hi int) {
	bufp := s.scratch.get()
	cur, next := s.cur, s.next
	var localChanged int64
	var localDelta int32
	for v := lo; v < hi; v++ {
		nv := hIndexOf(cur, s.g.Neighbors(int32(v)), *bufp)
		next[v] = nv
		if nv != cur[v] {
			localChanged++
			if d := cur[v] - nv; d > localDelta {
				localDelta = d
			}
		}
	}
	s.scratch.put(bufp)
	if localChanged > 0 {
		s.changed.Add(localChanged)
		parallel.MaxInt32(&s.deltaMax, localDelta)
	}
}

// asyncSweeper owns the state of the asynchronous (in-place) h-index
// iteration behind PKMC: one value vector that every sweep updates in
// place, so a vertex already sees the values its neighbors wrote earlier
// in the same sweep (Sariyüce et al.'s asynchronous local algorithms).
// Other workers write h concurrently, so every access is atomic. Like
// hSweeper it prebinds its block bodies, so the steady-state loop
// allocates nothing.
type asyncSweeper struct {
	g       *graph.Undirected
	scratch *hScratch
	h       []atomic.Int32
	p       int

	changed  atomic.Int64
	deltaMax atomic.Int32
	top      atomic.Uint64 // this sweep's (h_max, count) pair, packed by mergeTop
	target   int32         // the h_max certifyBlock tests against
	short    atomic.Bool   // certifyBlock found a candidate with too few candidate neighbors
	body     func(lo, hi int)
	certBody func(lo, hi int)
}

func newAsyncSweeper(g *graph.Undirected, p int) *asyncSweeper {
	s := &asyncSweeper{
		g:       g,
		scratch: newHScratch(g.MaxDegree()),
		h:       make([]atomic.Int32, g.N()),
		p:       p,
	}
	s.body = s.sweepBlock
	s.certBody = s.certifyBlock
	parallel.For(g.N(), p, func(v int) {
		s.h[v].Store(g.Degree(int32(v)))
	})
	return s
}

// sweep performs one in-place h-index iteration over all vertices. Each
// vertex is written only while its own block visits it, so after the
// barrier h[v] is the value this sweep computed for v, and the maximum
// and its count gathered on the way are exact. It returns how many
// vertices changed, the largest single decrease, h_max and how many
// vertices attain it.
//
//dsd:hotpath
func (s *asyncSweeper) sweep() (changed int64, maxDelta, hmax int32, atMax int64) {
	s.changed.Store(0)
	s.deltaMax.Store(0)
	s.top.Store(0)
	parallel.ForBlocks(s.g.N(), s.p, parallel.DefaultGrain, s.body)
	top := s.top.Load()
	return s.changed.Load(), s.deltaMax.Load(), int32(top >> 32), int64(uint32(top))
}

// sweepBlock is the asynchronous sweep's block body.
//
//dsd:hotpath
func (s *asyncSweeper) sweepBlock(lo, hi int) {
	bufp := s.scratch.get()
	h := s.h
	var localChanged int64
	var localDelta, localMax int32
	var localCount int64
	for v := lo; v < hi; v++ {
		old := h[v].Load()
		nv := hIndexOfLoad(h, s.g.Neighbors(int32(v)), *bufp)
		if nv != old {
			h[v].Store(nv)
			localChanged++
			localDelta = max(localDelta, old-nv)
		}
		switch {
		case nv > localMax:
			localMax, localCount = nv, 1
		case nv == localMax:
			localCount++
		}
	}
	s.scratch.put(bufp)
	if localChanged > 0 {
		s.changed.Add(localChanged)
		parallel.MaxInt32(&s.deltaMax, localDelta)
	}
	mergeTop(&s.top, localMax, localCount)
}

// mergeTop folds one block's (max, count) pair into the packed running
// pair: max in the high 32 bits, count in the low 32 (a count never
// exceeds n < 2³¹). A larger max replaces the pair, an equal one adds
// its count.
//
//dsd:hotpath
func mergeTop(top *atomic.Uint64, hmax int32, count int64) {
	for {
		old := top.Load()
		next := uint64(hmax)<<32 | uint64(count)
		switch cur := int32(old >> 32); {
		case hmax < cur:
			return
		case hmax == cur:
			next = old + uint64(count)
		}
		if top.CompareAndSwap(old, next) {
			return
		}
	}
}

// certify reports whether C = {v : h(v) = hmax} induces minimum degree
// >= hmax: then C lies in the hmax-core, and PKMC's stop applies. It
// builds no set (membership is h[u] == hmax), so it costs one scan of h
// plus at most vol(C), and returns at the first vertex of C short of
// hmax neighbors in C. Call it between sweeps only.
//
//dsd:hotpath
func (s *asyncSweeper) certify(hmax int32) bool {
	s.target = hmax
	s.short.Store(false)
	parallel.ForBlocks(s.g.N(), s.p, parallel.DefaultGrain, s.certBody)
	return !s.short.Load()
}

// certifyBlock is certify's block body.
//
//dsd:hotpath
func (s *asyncSweeper) certifyBlock(lo, hi int) {
	h, k := s.h, s.target
	for v := lo; v < hi; v++ {
		if h[v].Load() != k {
			continue
		}
		if s.short.Load() {
			return // another block already refuted C
		}
		var in int32
		for _, u := range s.g.Neighbors(int32(v)) {
			if h[u].Load() == k {
				in++
				if in >= k {
					break
				}
			}
		}
		if in < k {
			s.short.Store(true)
			return
		}
	}
}

// initDegrees fills h with the vertex degrees in parallel — the h⁰
// initialization shared by Local and PKMC (Algorithms 1 and 2, line 1).
func initDegrees(g *graph.Undirected, h []int32, p int) {
	parallel.For(g.N(), p, func(v int) {
		h[v] = g.Degree(int32(v))
	})
}
