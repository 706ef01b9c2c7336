package dds

import (
	"context"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/solver"
)

// PWC is the paper's Algorithm 4: the parallel 2-approximate DDS solver
// built on the w-induced subgraph. It (1) computes the w*-induced subgraph
// with Algorithm 3 plus the d_max warm start, (2) locates the maximum
// cn-pair [x*, y*] inside it by deleting exact-weight edges per candidate
// in-degree until the subgraph collapses (Lemma 6), and (3) peels the
// [x*, y*]-core out of the w*-induced subgraph (legitimate when w* = x*·y*,
// since the core is contained in it by Lemma 4). Only w* >= x*·y* holds
// in general; when the core comes back empty, certifiedMaxPair walks down
// the peel levels to the true maximum pair.
//
// An armed opts.Trace times the three stages — the w*-induced subgraph
// decomposition (Algorithm 3), the Lemma-6 edge-deletion search for
// [x*, y*], and the final core extraction — as phases, and receives the
// paper's Table-7 instrumentation as counters: the arc counts of the
// graphs actually processed (arcs_input, the "PXY" row, which re-processes
// all m arcs per candidate; arcs_after_warm_start, "PWC₁"; arcs_at_wstar,
// "PWC_w*"; arcs_densest, "PWC_D*" = |E(S,T)| of the returned core), plus
// wstar and levels. PWC cannot be canceled.
func PWC(_ context.Context, d *graph.Directed, opts solver.Params) (solver.DirectedResult, error) {
	tr, p := opts.Trace, opts.Workers
	tr.SetAlgorithm("PWC")
	var ws WStarResult
	var arcsDensest int64
	defer func() {
		tr.Counter("arcs_input", d.M())
		tr.Counter("arcs_after_warm_start", ws.ArcsAfterWarmStart)
		tr.Counter("arcs_at_wstar", ws.ArcsAtWStar)
		tr.Counter("arcs_densest", arcsDensest)
		tr.Counter("wstar", ws.WStar)
		tr.Counter("levels", int64(ws.Levels))
		tr.RaisePeak(ws.ArcsAfterWarmStart)
	}()
	if d.M() == 0 {
		return solver.DirectedResult{Algorithm: "PWC"}, nil
	}
	endDecomp := tr.StartPhase("wstar-decomposition")
	ws = WStarSubgraph(d, p, true)
	endDecomp()

	h := ws.Subgraph
	endSearch := tr.StartPhase("cnpair-search")
	x, y := findMaxCNPair(h, ws.WStar, p)
	endSearch()
	// Extract the [x*, y*]-core from the w*-induced subgraph. When
	// w* = x*·y* the core of d is a subgraph of h, so the peel on h equals
	// the peel on d restricted to h.
	endExtract := tr.StartPhase("core-extraction")
	defer endExtract()
	s, t := XYCore(h, x, y)
	orig := ws.Original
	if len(s) == 0 || len(t) == 0 {
		// w* exceeded x*·y*, so h holds no core of product w*. Certify
		// the maximum pair by walking down the levels instead, and peel
		// its core out of the warm-start remainder, which contains it.
		// This runs inside the extraction phase.
		x, y = certifiedMaxPair(ws, p)
		s, t = XYCore(ws.base, x, y)
		orig = ws.baseOrig
		if len(s) == 0 || len(t) == 0 {
			return solver.DirectedResult{Algorithm: "PWC"}, nil
		}
	}
	sOrig := mapBack(s, orig)
	tOrig := mapBack(t, orig)
	arcsDensest = d.EdgesST(sOrig, tOrig)
	return solver.DirectedResult{
		Algorithm:  "PWC",
		S:          sOrig,
		T:          tOrig,
		Density:    densityOf(arcsDensest, len(sOrig), len(tOrig)),
		XStar:      x,
		YStar:      y,
		Iterations: ws.Levels,
	}, nil
}

// findMaxCNPair runs the edge-deletion search of Algorithm 4 on the
// w*-induced subgraph h: collect the candidate in-degrees d* of arcs whose
// weight is exactly w*, and for each (ascending), delete to a fixpoint both
// the arcs that fell below w* (cleanup) and the arcs whose endpoints'
// degrees are exactly (w*/d*, d*). The candidate charged with emptying the
// graph is the maximum cn-pair [x*, y*] (Lemma 6). Degrees only decrease,
// so exhausted candidate lists are re-collected until the graph collapses.
func findMaxCNPair(h *graph.Directed, wstar int64, p int) (xstar, ystar int32) {
	if wstar <= 0 || h.M() == 0 {
		return 0, 0
	}
	st := newWState(h, p)
	for st.arcsLeft > 0 {
		cands := exactInDegrees(st, wstar, p)
		if len(cands) == 0 {
			// No arc currently weighs exactly w*: every live arc weighs
			// more, which contradicts w* being the maximum induce-number
			// (Proposition 4) unless rounding races delayed a cleanup.
			// One cleanup pass below w* restores the invariant.
			if st.peelLevel(wstar-1, nil, p) == 0 {
				break // defensive: avoid looping on a theory violation
			}
			st.refreshActive()
			continue
		}
		for _, dstar := range cands {
			xc := int32(wstar / int64(dstar))
			if st.deleteExact(wstar, dstar, p) {
				xstar, ystar = xc, dstar
			}
			st.refreshActive()
			if st.arcsLeft == 0 {
				return xstar, ystar
			}
		}
	}
	return xstar, ystar
}

// exactInDegrees collects the distinct head in-degrees of live arcs whose
// current weight is exactly wstar, ascending (the pop order of Algorithm
// 4's P set, per the paper's Example 4).
func exactInDegrees(st *wState, wstar int64, p int) []int32 {
	seen := make(map[int32]struct{})
	var mu sync.Mutex
	parallel.ForBlocks(len(st.active), p, 256, func(lo, hi int) {
		local := map[int32]struct{}{}
		for i := lo; i < hi; i++ {
			u := st.active[i]
			du := int64(st.dplus[u])
			if du == 0 {
				continue
			}
			alo, ahi := st.d.OutArcRange(u)
			for a := alo; a < ahi; a++ {
				if !st.alive[a] {
					continue
				}
				dv := st.dminus[st.d.ArcHead(a)].Load()
				if du*int64(dv) == wstar {
					local[dv] = struct{}{}
				}
			}
		}
		if len(local) > 0 {
			mu.Lock()
			for k := range local {
				seen[k] = struct{}{}
			}
			mu.Unlock()
		}
	})
	out := make([]int32, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// deleteExact removes, to a fixpoint, both sub-w* arcs and arcs whose
// endpoint degrees are exactly (w*/d*, d*); reports whether any exact-pair
// arc was removed (Algorithm 4, lines 14-17).
func (st *wState) deleteExact(wstar int64, dstar int32, p int) bool {
	var removedExact atomic.Bool
	for {
		st.removed.Store(0)
		parallel.ForBlocks(len(st.active), p, 256, func(lo, hi int) {
			var removed int64
			exact := false
			for i := lo; i < hi; i++ {
				u := st.active[i]
				alo, ahi := st.d.OutArcRange(u)
				for a := alo; a < ahi; a++ {
					if !st.alive[a] {
						continue
					}
					dv := st.dminus[st.d.ArcHead(a)].Load()
					w := int64(st.dplus[u]) * int64(dv)
					if w < wstar {
						st.remove(u, a)
						removed++
					} else if w == wstar && dv == dstar {
						st.remove(u, a)
						removed++
						exact = true
					}
				}
			}
			if exact {
				removedExact.Store(true)
			}
			if removed > 0 {
				st.removed.Add(removed)
			}
		})
		swept := st.removed.Load()
		if swept == 0 {
			return removedExact.Load()
		}
		st.arcsLeft -= swept
	}
}

// certifiedMaxPair finds the maximum cn-pair when the w*-induced subgraph
// holds no core of product w* (w* can exceed x*·y*). Let H_L be the arcs
// whose removal level is at least L. Every [x, y]-core with x·y >= L lies
// in H_L, and H_L is the same graph for every L in (L_{j-1}, L_j] of two
// consecutive levels. So the walk runs PXY's enumeration on H_{L_j} for
// the levels L_j of the working graph, from w* down, and stops at the
// first whose best product P reaches L_{j-1}: a larger product would
// exceed L_{j-1}, lie in H_{L_j}, and have been found. Once the walk
// reaches the working graph's first level it searches the warm-start
// remainder instead, which holds the [x*, y*]-core because x*·y* >= d_max.
func certifiedMaxPair(ws WStarResult, p int) (x, y int32) {
	levels := slices.Clone(ws.workLevel)
	slices.Sort(levels)
	levels = slices.Compact(levels)
	slices.Reverse(levels)
	for j := 0; j+1 < len(levels); j++ {
		var arcs []int64
		for a, level := range ws.workLevel {
			if level >= levels[j] {
				arcs = append(arcs, int64(a))
			}
		}
		h, _ := induceFromArcs(ws.work, arcs)
		x, y, _ = maxProductPair(h, p)
		if int64(x)*int64(y) >= levels[j+1] {
			return x, y
		}
	}
	x, y, _ = maxProductPair(ws.base, p)
	return x, y
}

func mapBack(local []int32, original []int32) []int32 {
	out := make([]int32, len(local))
	for i, v := range local {
		out[i] = original[v]
	}
	return out
}
