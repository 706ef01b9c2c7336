package dds

import (
	"slices"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// This file implements the paper's w-induced subgraph model (Definitions
// 8-10) and its parallel decomposition (Algorithm 3). The weight of arc
// (u, v) within a subgraph H is d⁺_H(u)·d⁻_H(v); the w-induced subgraph is
// the maximal subgraph whose every arc weighs at least w; w* is the largest
// w with a non-empty w-induced subgraph. Theorem 2 states w* = x*·y*, which
// is what lets PWC find the [x*, y*]-core from one decomposition; only
// w* >= x*·y* holds in general, and PWC falls back on threshold probes
// when the two differ.

// noArc is the minimum weight a sweep reports when it sees no live arc.
const noArc = int64(1) << 62

// wState is the mutable arc-peeling state over a Directed. Tail u's live
// out-arcs are the prefix heads[lo : lo+dplus[u]] of its own out-CSR range
// [lo, hi), so d⁺(u) is the prefix length and a sweep scans live arcs
// only: removing an arc swaps it with the prefix's last slot, where it
// stays for a wSnapshot to restore. slot holds each slot's original arc id
// as an offset from lo. The sweep body is prebound as a method value at
// construction (with its per-call inputs staged in fields), so the
// //dsd:hotpath peel never allocates a closure per sweep.
//
// Ownership rule: every parallel sweep (peelBlock, deleteExact,
// exactInDegrees) partitions st.active, and active lists each tail once,
// so a tail's range of heads and slot and its dplus entry are read and
// written only by the one block that owns the tail. That is why they are
// plain slices and a removal is plain stores. dminus is the only
// cross-block write (many tails share a head) and stays atomic. arcsLeft
// is touched only between regions: each block adds its removal count to
// removed once, and the caller subtracts the total after the region.
type wState struct {
	d        *graph.Directed
	heads    []int32 // live prefix of each tail's range, owned by its block
	slot     []int32 // arc id of each slot, as an offset within its range
	dplus    []int32 // owned by the vertex's tail block
	dminus   []atomic.Int32
	arcsLeft int64   // written between regions only
	active   []int32 // vertices that may still have out-arcs, ascending

	// Staged inputs and accumulators of the prebound sweep body.
	level   int64   // peel threshold of the sweep in flight
	removal []int64 // optional sink: the level that removed each arc id
	removed atomic.Int64
	scanned atomic.Int64 // live arcs the peel sweeps visited, in total
	minW    atomic.Int64 // least surviving weight of the sweep in flight
	peelFn  func(lo, hi int)
}

func newWState(d *graph.Directed, p int) *wState {
	n := d.N()
	st := &wState{
		d:        d,
		heads:    make([]int32, d.M()),
		slot:     make([]int32, d.M()),
		dplus:    make([]int32, n),
		dminus:   make([]atomic.Int32, n),
		arcsLeft: d.M(),
	}
	st.peelFn = st.peelBlock
	parallel.For(n, p, func(v int) {
		lo, hi := d.OutArcRange(int32(v))
		copy(st.heads[lo:hi], d.OutNeighbors(int32(v)))
		for a := lo; a < hi; a++ {
			st.slot[a] = int32(a - lo)
		}
		st.dplus[v] = int32(hi - lo)
		st.dminus[v].Store(d.InDegree(int32(v)))
	})
	for v := int32(0); int(v) < n; v++ {
		if st.dplus[v] > 0 {
			st.active = append(st.active, v)
		}
	}
	return st
}

// refreshActive drops the vertices that lost their last out-arc from the
// active list, in place. Out-degrees only fall, so no vertex ever rejoins
// and the filtered list stays ascending.
func (st *wState) refreshActive() {
	k := 0
	for _, v := range st.active {
		if st.dplus[v] > 0 {
			st.active[k] = v
			k++
		}
	}
	st.active = st.active[:k]
}

// drop removes the live arc in slot i of the tail range starting at lo,
// whose live prefix ends at slot last: it swaps slots i and last, and the
// caller shortens the prefix. Only the block owning the tail calls it.
func (st *wState) drop(lo, i, last int64) {
	st.dminus[st.heads[i]].Add(-1)
	if st.removal != nil {
		st.removal[lo+int64(st.slot[i])] = st.level
	}
	st.heads[i], st.heads[last] = st.heads[last], st.heads[i]
	st.slot[i], st.slot[last] = st.slot[last], st.slot[i]
}

// wSnapshot is a saved wState. Peels only shorten live prefixes and drop
// keeps removed arcs in their tail's range, so the degrees, the active
// list and the arc count undo any peel since the save, in O(n).
type wSnapshot struct {
	dplus, dminus, active []int32
	arcsLeft              int64
}

func (s *wSnapshot) save(st *wState) {
	s.dminus = slices.Grow(s.dminus[:0], len(st.dminus))
	for v := range st.dminus {
		s.dminus = append(s.dminus, st.dminus[v].Load())
	}
	s.dplus = append(s.dplus[:0], st.dplus...)
	s.active = append(s.active[:0], st.active...)
	s.arcsLeft = st.arcsLeft
}

func (s *wSnapshot) restore(st *wState) {
	copy(st.dplus, s.dplus)
	for v, dv := range s.dminus {
		// A probe changes few in-degrees, and loads are cheaper.
		if st.dminus[v].Load() != dv {
			st.dminus[v].Store(dv)
		}
	}
	st.active = append(st.active[:0], s.active...)
	st.arcsLeft = s.arcsLeft
}

// peelLevel removes, to a fixpoint, every live arc whose current weight is
// at most level, recording level as the removal level of each arc when
// st.removal is set. It is the inner while-loop of Algorithm 3 (lines
// 6-15): each sweep walks the active vertices in parallel; removals lower
// neighbor degrees, which can pull more arcs under the level, so sweeps
// repeat until one removes nothing. That last sweep changed no degree, so
// the least weight it saw is exact: peelLevel returns it as the next level
// (noArc once the graph is empty).
//
//dsd:hotpath
func (st *wState) peelLevel(level int64, p int) int64 {
	st.level = level
	for {
		st.removed.Store(0)
		st.minW.Store(noArc)
		parallel.ForBlocks(len(st.active), p, 256, st.peelFn)
		swept := st.removed.Load()
		if swept == 0 {
			return st.minW.Load()
		}
		st.arcsLeft -= swept
		st.refreshActive()
	}
}

// peelBlock is peelLevel's block body, reached through the prebound method
// value; its threshold is staged in st.level. A tail's weight falls with
// each removal, so the arc swapped into a freed slot is weighed afresh.
// The block publishes its removals, its scanned arcs and its least
// surviving weight once each, at the end.
//
//dsd:hotpath
func (st *wState) peelBlock(lo, hi int) {
	var removed, scanned int64
	least := noArc
	for i := lo; i < hi; i++ {
		u := st.active[i]
		alo, _ := st.d.OutArcRange(u)
		du := int64(st.dplus[u])
		scanned += du
		for a := alo; a < alo+du; {
			w := du * int64(st.dminus[st.heads[a]].Load())
			if w > st.level {
				least = min(least, w)
				a++
				continue
			}
			du--
			st.drop(alo, a, alo+du)
			removed++
		}
		st.dplus[u] = int32(du)
	}
	st.scanned.Add(scanned)
	if removed > 0 {
		st.removed.Add(removed)
	}
	parallel.MinInt64(&st.minW, least)
}

// DecomposeResult is the outcome of the full w-induced decomposition.
type DecomposeResult struct {
	// InduceNumber[a] is the induce-number (Definition 10) of arc id a.
	InduceNumber []int64
	// WStar is the maximum induce-number.
	WStar int64
	// Levels is the number of distinct weight levels processed.
	Levels int
}

// WDecompose runs the paper's Algorithm 3 to completion: it iteratively
// peels the arcs of minimum weight (cascading within each level in
// parallel) and records every arc's induce-number. O(m·d_max) worst case.
func WDecompose(d *graph.Directed, p int) DecomposeResult {
	st := newWState(d, p)
	st.removal = make([]int64, d.M())
	res := DecomposeResult{InduceNumber: st.removal}
	// Live weights are at least 1, so a sweep at level 0 removes nothing
	// and only reports the first level.
	level := st.peelLevel(0, p)
	for st.arcsLeft > 0 {
		res.WStar = level
		level = st.peelLevel(level, p)
		res.Levels++
	}
	return res
}

// WStarResult is the outcome of the PWC-oriented w*-subgraph computation.
type WStarResult struct {
	WStar int64
	// Subgraph is the w*-induced subgraph re-labeled to dense ids in
	// ascending order; Original maps its vertices back to the input
	// digraph.
	Subgraph *graph.Directed
	Original []int32
	// ArcsAfterWarmStart is |E| remaining after the warm-start peel at
	// w⁰ = d_max (the "PWC₁" column of the paper's Table 7).
	ArcsAfterWarmStart int64
	// ArcsAtWStar is |E| of the w*-induced subgraph ("PWC_w*" in Table 7).
	ArcsAtWStar int64
	// Levels counts the threshold peels run, the warm start included.
	Levels int
	// ArcsScanned is the number of live arcs the peel sweeps visited.
	ArcsScanned int64

	// The peel state and its warm start, for PWC's certified fallback.
	st   *wState
	warm wSnapshot
}

// WStarSubgraph computes only the w*-induced subgraph, using the paper's
// Remark: w* >= d_max (the hub vertex and its neighbors form a d_max-induced
// subgraph), so the first level can immediately peel every arc of weight
// < d_max — on the benchmark graphs this one step discards most of the
// graph, which is where PWC's advantage over PXY comes from (Exp-6).
//
// Then a threshold search: peeling the arcs of weight below T from any
// superset of the T-induced subgraph stops exactly at it, so peelLevel(T-1)
// from the last non-empty state answers "is w* >= T?", and a miss restores
// that state. Probes gallop up from the least surviving weight (step 1,
// doubling), then bisect once one empties the graph.
func WStarSubgraph(d *graph.Directed, p int) WStarResult {
	var res WStarResult
	if d.M() == 0 {
		res.Subgraph = d
		return res
	}
	st := newWState(d, p)
	dmax := int64(max(d.MaxOutDegree(), d.MaxInDegree()))
	// Warm start: remove everything strictly below d_max. The remainder
	// is the d_max-induced subgraph, non-empty by the Remark.
	lo := st.peelLevel(dmax-1, p)
	res.Levels = 1
	res.ArcsAfterWarmStart = st.arcsLeft
	res.st = st
	res.warm.save(st)
	var kept wSnapshot
	kept.save(st)
	// lo <= w* < hi. t gallops up by step until a probe empties the
	// graph and sets hi; from then on (hi-lo)/2 < step, so t bisects.
	for step, hi := int64(1), noArc; hi-lo > 1; step *= 2 {
		t := lo + min(step, (hi-lo)/2)
		next := st.peelLevel(t-1, p)
		res.Levels++
		if st.arcsLeft == 0 {
			hi = t
			kept.restore(st)
		} else {
			lo = next
			kept.save(st)
		}
	}
	res.WStar = lo
	res.ArcsScanned = st.scanned.Load()
	res.Subgraph, res.Original = st.liveSubgraph()
	res.ArcsAtWStar = res.Subgraph.M()
	return res
}

// liveSubgraph builds the subdigraph of the arcs still live in st, keeping
// only the vertices some arc touches and numbering them in ascending id
// order. It returns the mapping of its vertices back to st.d.
func (st *wState) liveSubgraph() (*graph.Directed, []int32) {
	arcs := make([]graph.Edge, 0, st.arcsLeft)
	id := make([]int32, st.d.N())
	for _, u := range st.active {
		lo, _ := st.d.OutArcRange(u)
		for _, v := range st.heads[lo : lo+int64(st.dplus[u])] {
			arcs = append(arcs, graph.Edge{U: u, V: v})
			id[u], id[v] = 1, 1
		}
	}
	var original []int32
	for v, seen := range id {
		if seen != 0 {
			id[v] = int32(len(original))
			original = append(original, int32(v))
		}
	}
	for i, e := range arcs {
		arcs[i] = graph.Edge{U: id[e.U], V: id[e.V]}
	}
	return graph.NewDirected(len(original), arcs), original
}
