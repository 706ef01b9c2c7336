package dds

import (
	"context"
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
// in general; when the core comes back empty, the fallback certifies the
// true maximum pair with at most two enumerations (see below).
//
// An armed opts.Trace times the three stages — the w*-induced subgraph
// decomposition (Algorithm 3), the Lemma-6 edge-deletion search for
// [x*, y*], and the final core extraction — as phases, and receives the
// paper's Table-7 instrumentation as counters: the arc counts of the
// graphs actually processed (arcs_input, the "PXY" row, which re-processes
// all m arcs per candidate; arcs_after_warm_start, "PWC₁"; arcs_at_wstar,
// "PWC_w*"; arcs_densest, "PWC_D*" = |E(S,T)| of the returned core), plus
// wstar and levels (the w*-search's peels). Its work total arcs_scanned
// counts the live arcs the w-peel's sweeps visited. PWC cannot be canceled.
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
		tr.AddWork("arcs_scanned", ws.ArcsScanned)
		tr.RaisePeak(ws.ArcsAfterWarmStart)
	}()
	if d.M() == 0 {
		return solver.DirectedResult{Algorithm: "PWC"}, nil
	}
	endDecomp := tr.StartPhase("wstar-decomposition")
	ws = WStarSubgraph(d, p)
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
		// w* exceeded x*·y*. PXY's enumeration on h finds the best
		// product P <= x*·y* of a core in h. Every core of product >= L
		// lies in the L-induced subgraph H_L (Lemma 4), so if H_{P+1} is
		// h, P is certified; otherwise one more enumeration on H_P is.
		// H_P holds the core, where h may hold only part of it.
		x, y, _ = maxProductPair(h, p)
		prod := int64(x) * int64(y)
		ws.warm.restore(ws.st)
		ws.st.peelLevel(prod-1, p)
		h, orig = ws.st.liveSubgraph()
		if ws.st.peelLevel(prod, p); ws.st.arcsLeft != ws.ArcsAtWStar {
			x, y, _ = maxProductPair(h, p)
		}
		ws.ArcsScanned = ws.st.scanned.Load()
		s, t = XYCore(h, x, y)
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
			// No arc weighs exactly w*, so every live arc weighs more,
			// which contradicts w* being the maximum induce-number
			// (Proposition 4). The sweeps run to an exact fixpoint, so
			// this branch is purely defensive: one cleanup below w*, and
			// stop if it removes nothing.
			left := st.arcsLeft
			st.peelLevel(wstar-1, p)
			if st.arcsLeft == left {
				break
			}
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
			alo, _ := st.d.OutArcRange(u)
			for _, v := range st.heads[alo : alo+du] {
				if dv := st.dminus[v].Load(); du*int64(dv) == wstar {
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
				alo, _ := st.d.OutArcRange(u)
				du := int64(st.dplus[u])
				for a := alo; a < alo+du; {
					dv := st.dminus[st.heads[a]].Load()
					w := du * int64(dv)
					if w > wstar || (w == wstar && dv != dstar) {
						a++
						continue
					}
					exact = exact || w == wstar
					du--
					st.drop(alo, a, alo+du)
					removed++
				}
				st.dplus[u] = int32(du)
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

func mapBack(local []int32, original []int32) []int32 {
	out := make([]int32, len(local))
	for i, v := range local {
		out[i] = original[v]
	}
	return out
}
