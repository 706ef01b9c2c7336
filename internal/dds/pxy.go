package dds

import (
	"math"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// PXY is the parallelized Core-Approx of Ma et al. (the paper's
// state-of-the-art DDS baseline): enumerate every candidate x in [1, √m]
// and compute the largest y with a non-empty [x, y]-core, then symmetrically
// every y in [1, √m] computing the largest x; the pair maximizing x·y is
// [x*, y*] and its core is a 2-approximate DDS (Lemma 3). The enumeration
// is safe because x·y <= m for any non-empty [x, y]-core, so min(x, y) <= √m.
//
// Parallelization is per candidate, dynamically assigned to workers. Each
// in-flight candidate peels its own O(n)-sized mutable copy of the degree
// state — the per-thread memory growth that makes PXY exceed memory on the
// paper's Twitter graph once p > 4 (Exp-5/Exp-7).
//
// PXY also suffers load imbalance: the peel cost varies wildly across
// candidates, so big x values finish immediately while x=1 pays a full
// decomposition; the dynamic assignment here mitigates but cannot remove
// the critical path.
func PXY(d *graph.Directed, p int) Result {
	x, y, candidates := maxProductPair(d, p)
	if x == 0 {
		return Result{Algorithm: "PXY"}
	}
	s, t := XYCore(d, x, y)
	return Result{
		Algorithm:  "PXY",
		S:          s,
		T:          t,
		Density:    d.DensityST(s, t),
		XStar:      x,
		YStar:      y,
		Iterations: candidates,
	}
}

// maxProductPair is PXY's enumeration: YMax for every x in [1, √m] and,
// on the reversed digraph, XMax for every y in [1, √m]. It returns the
// first pair in candidate order with the largest product x·y (0, 0 when D
// has no arcs), so the answer does not depend on p, together with the
// number of candidates.
func maxProductPair(d *graph.Directed, p int) (x, y int32, candidates int) {
	m := d.M()
	if m == 0 {
		return 0, 0, 0
	}
	limit := int(math.Sqrt(float64(m)))
	if limit < 1 {
		limit = 1
	}
	// Candidates 1..limit for the x sweep, then 1..limit for the y sweep;
	// grain 1 hands them out one at a time, as their costs vary wildly.
	total := 2 * limit
	other := make([]int32, total)
	rev := d.Reverse()
	parallel.ForGrain(total, p, 1, func(i int) {
		if i < limit {
			other[i] = YMax(d, int32(i)+1)
		} else {
			other[i] = YMax(rev, int32(i-limit)+1)
		}
	})
	var best int64
	for i, o := range other {
		cx, cy := int32(i)+1, o
		if i >= limit {
			cx, cy = o, int32(i-limit)+1
		}
		if prod := int64(cx) * int64(cy); prod > best {
			best, x, y = prod, cx, cy
		}
	}
	return x, y, total
}
