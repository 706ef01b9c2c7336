package dds

import (
	"repro/internal/bucket"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// XYCore peels D to its [x, y]-core (Definition 7): the maximal pair (S, T)
// such that every u in S has at least x out-arcs into T and every v in T
// has at least y in-arcs from S. x and y must be >= 1. Returns nil, nil if
// the core is empty.
//
// A vertex plays both roles independently: leaving S does not force it out
// of T. The peel is the standard cascade — constraint violations are pushed
// on a worklist and removing a role decrements the opposite-role degrees of
// the neighbors on the other side.
func XYCore(d *graph.Directed, x, y int32) (s, t []int32) {
	n := d.N()
	if n == 0 || x < 1 || y < 1 {
		return nil, nil
	}
	inS := make([]bool, n)
	inT := make([]bool, n)
	dplus := make([]int32, n)
	dminus := make([]int32, n)
	type task struct {
		v     int32
		sSide bool
	}
	var work []task
	for v := int32(0); int(v) < n; v++ {
		inS[v] = true
		inT[v] = true
		dplus[v] = d.OutDegree(v)
		dminus[v] = d.InDegree(v)
		if dplus[v] < x {
			work = append(work, task{v, true})
		}
		if dminus[v] < y {
			work = append(work, task{v, false})
		}
	}
	for len(work) > 0 {
		tk := work[len(work)-1]
		work = work[:len(work)-1]
		if tk.sSide {
			if !inS[tk.v] {
				continue
			}
			inS[tk.v] = false
			for _, v := range d.OutNeighbors(tk.v) {
				if inT[v] {
					dminus[v]--
					if dminus[v] < y {
						work = append(work, task{v, false})
					}
				}
			}
		} else {
			if !inT[tk.v] {
				continue
			}
			inT[tk.v] = false
			for _, u := range d.InNeighbors(tk.v) {
				if inS[u] {
					dplus[u]--
					if dplus[u] < x {
						work = append(work, task{u, true})
					}
				}
			}
		}
	}
	for v := int32(0); int(v) < n; v++ {
		if inS[v] {
			s = append(s, v)
		}
		if inT[v] {
			t = append(t, v)
		}
	}
	return s, t
}

// YMax returns the largest y such that the [x, y]-core of D is non-empty
// (0 if even the [x, 1]-core is empty). One call is one unit of PXY's
// enumeration: it peels T-side vertices in increasing in-degree with a
// bucket queue while cascading the fixed out-degree constraint x on the S
// side, and the answer is the highest in-degree level the peel reaches —
// the same running-max argument as serial core decomposition.
func YMax(d *graph.Directed, x int32) int32 {
	n := d.N()
	if n == 0 || x < 1 {
		return 0
	}
	inS := make([]bool, n)
	inT := make([]bool, n)
	dplus := make([]int32, n)
	dminus := make([]int32, n)
	for v := int32(0); int(v) < n; v++ {
		inS[v] = true
		inT[v] = true
		dplus[v] = d.OutDegree(v)
		dminus[v] = d.InDegree(v)
	}
	q := bucket.New(dminus, d.MaxInDegree())

	// leaveS cascades the S-side constraint, lowering T-side keys.
	var stack []int32
	leaveS := func(u int32) {
		stack = append(stack[:0], u)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !inS[u] {
				continue
			}
			inS[u] = false
			for _, v := range d.OutNeighbors(u) {
				if inT[v] {
					dminus[v]--
					q.DecreaseKey(v, dminus[v])
				}
			}
		}
	}
	// Enforce the initial out-degree constraint.
	for u := int32(0); int(u) < n; u++ {
		if inS[u] && dplus[u] < x {
			leaveS(u)
		}
	}

	var best int32
	var level int32
	for q.Len() > 0 {
		v, k := q.ExtractMin()
		if k > level {
			level = k
		}
		// Right before v leaves, every live T vertex has in-degree >= k,
		// every live S vertex has out-degree >= x: a witness [x, level]-core
		// (level >= 1 implies live in-arcs, hence a non-empty S).
		if level > best {
			best = level
		}
		inT[v] = false
		for _, u := range d.InNeighbors(v) {
			if inS[u] {
				dplus[u]--
				if dplus[u] < x {
					leaveS(u)
				}
			}
		}
	}
	return best
}

// CNPairSkyline returns the maximal cn-pairs of D: the pairs (x, YMax(x))
// with dominated entries removed, sorted by ascending x. Every [x, y]-core
// of D is dominated by some skyline pair (x' >= x, y' >= y), so the
// skyline is the complete summary of the directed core structure — the
// object PXY implicitly enumerates, and whose maximum product is x*·y*, at
// most w* (the paper's Theorem 2 claims equality). Candidates are computed
// in parallel like PXY.
func CNPairSkyline(d *graph.Directed, p int) [][2]int32 {
	xmax := d.MaxOutDegree()
	if xmax == 0 {
		return nil
	}
	ys := make([]int32, xmax+1)
	parallel.For(int(xmax), p, func(i int) {
		ys[i+1] = YMax(d, int32(i)+1)
	})
	var skyline [][2]int32
	for x := int32(1); x <= xmax; x++ {
		if ys[x] == 0 {
			continue
		}
		// Dominated iff some larger x reaches at least the same y.
		if x < xmax && ys[x+1] >= ys[x] {
			continue
		}
		skyline = append(skyline, [2]int32{x, ys[x]})
	}
	return skyline
}
