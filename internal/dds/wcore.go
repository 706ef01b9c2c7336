package dds

import (
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
// w* >= x*·y* holds in general, and PWC falls back on the peel levels
// when the two differ.

// wState is the mutable arc-peeling state over a Directed: per-arc alive
// flags (arc ids are out-CSR positions) plus degree counters. The
// level-sweep block bodies are prebound as method values at construction
// (with their per-call inputs staged in fields), so the //dsd:hotpath peel
// and min-weight kernels never allocate a closure per sweep.
//
// Ownership rule: every parallel sweep (peelBlock, minBlock, deleteExact,
// exactInDegrees) partitions st.active, and active lists each tail once,
// so a tail's out-arc range of alive and its dplus entry are read and
// written only by the one block that owns the tail. That is why alive and
// dplus are plain slices and remove is plain stores. dminus is the only
// cross-block write (many tails share a head) and stays atomic. arcsLeft
// is touched only between regions: each block adds its removal count to
// removed once, and the caller subtracts the total after the region.
type wState struct {
	d        *graph.Directed
	alive    []bool  // owned by the arc's tail block
	dplus    []int32 // owned by the vertex's tail block
	dminus   []atomic.Int32
	arcsLeft int64   // written between regions only
	active   []int32 // vertices that may still have out-arcs, ascending

	// Staged inputs and accumulators of the prebound sweep bodies.
	level   int64   // peel threshold of the sweep in flight
	induce  []int64 // optional induce-number sink of the sweep in flight
	removed atomic.Int64
	minW    atomic.Int64
	peelFn  func(lo, hi int)
	minFn   func(lo, hi int)
}

func newWState(d *graph.Directed, p int) *wState {
	n := d.N()
	st := &wState{
		d:        d,
		alive:    make([]bool, d.M()),
		dplus:    make([]int32, n),
		dminus:   make([]atomic.Int32, n),
		arcsLeft: d.M(),
	}
	st.peelFn = st.peelBlock
	st.minFn = st.minBlock
	parallel.For(n, p, func(v int) {
		st.dplus[v] = d.OutDegree(int32(v))
		st.dminus[v].Store(d.InDegree(int32(v)))
	})
	parallel.For(int(d.M()), p, func(a int) {
		st.alive[a] = true
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
	act := st.active[:0]
	for _, v := range st.active {
		if st.dplus[v] > 0 {
			act = append(act, v)
		}
	}
	st.active = act
}

// weight returns the current weight of the arc u -> head(a). The caller
// owns u, so d⁺(u) is exact; d⁻(head) may be read while other blocks lower
// it. Degrees only decrease, so a stale read can only overestimate — the
// peel sweeps repeat to a fixpoint, which makes overestimates safe (an arc
// is never removed above the level, only kept one sweep too long).
//
//dsd:hotpath
func (st *wState) weight(u int32, a int64) int64 {
	return int64(st.dplus[u]) * int64(st.dminus[st.d.ArcHead(a)].Load())
}

// minWeight returns the minimum live arc weight, or -1 if no arcs remain.
//
//dsd:hotpath
func (st *wState) minWeight(p int) int64 {
	st.minW.Store(int64(1) << 62)
	parallel.ForBlocks(len(st.active), p, 256, st.minFn)
	if st.minW.Load() == int64(1)<<62 {
		return -1
	}
	return st.minW.Load()
}

// minBlock is minWeight's block body, reached through the prebound method
// value: it folds the block's live arc weights into a local minimum and
// publishes it with one atomic min at the end.
//
//dsd:hotpath
func (st *wState) minBlock(lo, hi int) {
	local := int64(1) << 62
	for i := lo; i < hi; i++ {
		u := st.active[i]
		alo, ahi := st.d.OutArcRange(u)
		du := int64(st.dplus[u])
		if du == 0 {
			continue
		}
		for a := alo; a < ahi; a++ {
			if !st.alive[a] {
				continue
			}
			if w := du * int64(st.dminus[st.d.ArcHead(a)].Load()); w < local {
				local = w
			}
		}
	}
	parallel.MinInt64(&st.minW, local)
}

// remove deletes the live arc a = (u, head). Only the block owning tail u
// calls it, so the alive flag and d⁺(u) are plain stores; the head's d⁻ is
// the one shared counter. The caller accounts for the removal in arcsLeft.
//
//dsd:hotpath
func (st *wState) remove(u int32, a int64) {
	st.alive[a] = false
	st.dplus[u]--
	st.dminus[st.d.ArcHead(a)].Add(-1)
}

// peelLevel removes, to a fixpoint, every live arc whose current weight is
// at most level, optionally recording induce-numbers. It is the inner
// while-loop of Algorithm 3 (lines 6-15): each sweep walks the active
// vertices in parallel; removals lower neighbor degrees, which can pull
// more arcs under the level, so sweeps repeat until one changes nothing.
// Returns the number of arcs removed.
//
//dsd:hotpath
func (st *wState) peelLevel(level int64, induce []int64, p int) int64 {
	st.level = level
	st.induce = induce
	var total int64
	for {
		st.removed.Store(0)
		parallel.ForBlocks(len(st.active), p, 256, st.peelFn)
		swept := st.removed.Load()
		if swept == 0 {
			st.arcsLeft -= total
			return total
		}
		total += swept
	}
}

// peelBlock is peelLevel's block body, reached through the prebound method
// value; its threshold and induce sink are staged in st.level/st.induce.
//
//dsd:hotpath
func (st *wState) peelBlock(lo, hi int) {
	var removed int64
	for i := lo; i < hi; i++ {
		u := st.active[i]
		alo, ahi := st.d.OutArcRange(u)
		for a := alo; a < ahi; a++ {
			if st.alive[a] && st.weight(u, a) <= st.level {
				st.remove(u, a)
				if st.induce != nil {
					st.induce[a] = st.level
				}
				removed++
			}
		}
	}
	if removed > 0 {
		st.removed.Add(removed)
	}
}

// snapshotArcs returns the live arc ids (out-CSR order).
func (st *wState) snapshotArcs() []int64 {
	var arcs []int64
	for _, u := range st.active {
		alo, ahi := st.d.OutArcRange(u)
		for a := alo; a < ahi; a++ {
			if st.alive[a] {
				arcs = append(arcs, a)
			}
		}
	}
	return arcs
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
	induce := make([]int64, d.M())
	res := DecomposeResult{InduceNumber: induce}
	for st.arcsLeft > 0 {
		level := st.minWeight(p)
		st.peelLevel(level, induce, p)
		st.refreshActive()
		res.Levels++
		if level > res.WStar {
			res.WStar = level
		}
	}
	return res
}

// WStarResult is the outcome of the PWC-oriented w*-subgraph computation.
type WStarResult struct {
	WStar int64
	// Subgraph is the w*-induced subgraph re-labeled to dense ids;
	// Original maps its vertices back to the input digraph.
	Subgraph *graph.Directed
	Original []int32
	// ArcsAfterWarmStart is |E| remaining after the warm-start peel at
	// w⁰ = d_max (the "PWC₁" column of the paper's Table 7).
	ArcsAfterWarmStart int64
	// ArcsAtWStar is |E| of the w*-induced subgraph ("PWC_w*" in Table 7).
	ArcsAtWStar int64
	// Levels is the number of weight levels processed (including the warm
	// start), i.e. the t counter of Algorithm 3.
	Levels int

	// What PWC's certified fallback walks down: the working graph the last
	// levels were peeled on with each arc's removal level, and the
	// warm-start remainder with its mapping back to the input.
	work      *graph.Directed
	workLevel []int64
	base      *graph.Directed
	baseOrig  []int32
}

// WStarSubgraph computes only the w*-induced subgraph, using the paper's
// Remark: w* >= d_max (the hub vertex and its neighbors form a d_max-induced
// subgraph), so the first level can immediately peel every arc of weight
// < d_max — on the benchmark graphs this one step discards most of the
// graph, which is where PWC's advantage over PXY comes from (Exp-6).
//
// After the warm start, and again whenever the live arc set shrinks by
// another 8x, the working graph is re-materialized as a compact subgraph.
// Without this the level sweeps keep scanning the original CSR ranges,
// whose slots are mostly dead arcs — the re-compaction is the "reduce the
// size of the graph in each iteration" step of the paper's Exp-6.
func WStarSubgraph(d *graph.Directed, p int) WStarResult {
	var res WStarResult
	if d.M() == 0 {
		res.Subgraph = d
		return res
	}
	st := newWState(d, p)
	dmax := int64(d.MaxOutDegree())
	if in := int64(d.MaxInDegree()); in > dmax {
		dmax = in
	}
	// Warm start: remove everything strictly below d_max. The remainder
	// is the d_max-induced subgraph, non-empty by the Remark.
	st.peelLevel(dmax-1, nil, p)
	st.refreshActive()
	res.Levels = 1
	res.ArcsAfterWarmStart = st.arcsLeft

	// cur is the current working graph; orig maps its vertex ids back to
	// d's ids (nil = identity).
	cur, orig, st := compactState(d, nil, st, p)
	res.base, res.baseOrig = cur, orig
	lastCompact := st.arcsLeft

	// Level loop: levels strictly increase, and removal records the level
	// that removed each arc of the working graph. The last level empties
	// the graph, so the arcs it removed are the w*-induced subgraph.
	removal := make([]int64, cur.M())
	for st.arcsLeft > 0 {
		res.WStar = st.minWeight(p)
		st.peelLevel(res.WStar, removal, p)
		st.refreshActive()
		res.Levels++
		if st.arcsLeft > 0 && st.arcsLeft < lastCompact/8 {
			cur, orig, st = compactState(cur, orig, st, p)
			lastCompact = st.arcsLeft
			// Every arc of the new working graph is removed by a later
			// level, so the stale entries get overwritten.
			removal = removal[:cur.M()]
		}
	}
	var wArcs []int64
	for a, level := range removal {
		if level == res.WStar {
			wArcs = append(wArcs, int64(a))
		}
	}
	res.work, res.workLevel = cur, removal
	res.ArcsAtWStar = int64(len(wArcs))
	sub, subOrig := induceFromArcs(cur, wArcs)
	res.Subgraph = sub
	res.Original = composeMapping(orig, subOrig)
	return res
}

// compactState materializes the live subgraph of st as a fresh compact
// digraph with fresh peeling state, composing the id mapping.
func compactState(cur *graph.Directed, orig []int32, st *wState, p int) (*graph.Directed, []int32, *wState) {
	live := st.snapshotArcs()
	sub, subOrig := induceFromArcs(cur, live)
	return sub, composeMapping(orig, subOrig), newWState(sub, p)
}

// composeMapping resolves sub-ids through an optional outer mapping
// (nil = identity).
func composeMapping(orig, subOrig []int32) []int32 {
	if orig == nil {
		return subOrig
	}
	out := make([]int32, len(subOrig))
	for i, v := range subOrig {
		out[i] = orig[v]
	}
	return out
}

// induceFromArcs builds a re-labeled digraph from a set of arc ids of d.
func induceFromArcs(d *graph.Directed, arcIDs []int64) (*graph.Directed, []int32) {
	tails := make([]int32, 0, len(arcIDs))
	// Recover tails by walking arc ids against the CSR offsets; arcIDs is
	// sorted (snapshot order), so a single forward scan suffices.
	u := int32(0)
	for _, a := range arcIDs {
		for {
			_, hi := d.OutArcRange(u)
			if a < hi {
				break
			}
			u++
		}
		tails = append(tails, u)
	}
	local := make(map[int32]int32)
	var original []int32
	lookup := func(v int32) int32 {
		if lv, ok := local[v]; ok {
			return lv
		}
		lv := int32(len(original))
		local[v] = lv
		original = append(original, v)
		return lv
	}
	arcs := make([]graph.Edge, len(arcIDs))
	for i, a := range arcIDs {
		arcs[i] = graph.Edge{U: lookup(tails[i]), V: lookup(d.ArcHead(a))}
	}
	return graph.NewDirected(len(original), arcs), original
}
