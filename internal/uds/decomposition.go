package uds

import (
	"repro/internal/graph"
	"repro/internal/solver"
)

// DensityTier is one layer of the density-friendly decomposition.
type DensityTier struct {
	Vertices []int32 // the vertices added at this tier (disjoint across tiers)
	Density  float64 // density of THIS tier's induced subgraph within the remainder
}

// DensityFriendly computes the density-friendly decomposition of Tatti &
// Gionis / Danisch et al. (the paper's related work [23], [34]): a chain
// of disjoint tiers B1, B2, ... where B1 is the densest subgraph of G, B2
// the densest subgraph of G minus B1, and so on — nested prefixes of
// decreasing density that generalize the single densest subgraph into a
// whole-graph dense-region profile. Each tier is found with the
// core-pruned exact solver, so the decomposition is exact.
//
// The returned tier densities are non-increasing (the defining property);
// the union of all tiers is V minus any isolated remainder that has no
// edges.
func DensityFriendly(g *graph.Undirected, p int) []DensityTier {
	var tiers []DensityTier
	cur := g
	// mapping from cur's ids back to g's ids (nil = identity).
	var orig []int32
	for cur.M() > 0 {
		res, _ := ExactPruned(nil, cur, solver.Params{Workers: p}) // a nil ctx never cancels
		if len(res.Vertices) == 0 || res.Density <= 0 {
			break
		}
		tier := DensityTier{Density: res.Density}
		inTier := make(map[int32]bool, len(res.Vertices))
		for _, v := range res.Vertices {
			inTier[v] = true
			if orig == nil {
				tier.Vertices = append(tier.Vertices, v)
			} else {
				tier.Vertices = append(tier.Vertices, orig[v])
			}
		}
		tiers = append(tiers, tier)
		// Remainder: everything outside the tier.
		var rest []int32
		for v := int32(0); int(v) < cur.N(); v++ {
			if !inTier[v] {
				rest = append(rest, v)
			}
		}
		if len(rest) == 0 {
			break
		}
		sub, subOrig := cur.Induced(rest)
		if orig != nil {
			for i, v := range subOrig {
				subOrig[i] = orig[v]
			}
		}
		cur, orig = sub, subOrig
	}
	return tiers
}
