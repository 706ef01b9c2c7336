package graph

import "math/rand"

// SampleEdges returns the subgraph induced by keeping each edge
// independently with probability frac (clamped to [0, 1]) and the same
// vertex set, using the given seed. This is exactly the scalability-test
// protocol of the paper's Exp-4 and Exp-8: "randomly select 20%, 40%, 60%,
// 80%, and 100% of its edges, and then obtain ... subgraphs induced by these
// edges". Keeping n fixed makes the sweeps comparable across fractions.
func (g *Undirected) SampleEdges(frac float64, seed int64) *Undirected {
	if frac >= 1 {
		return g
	}
	return NewUndirected(g.N(), g.adj.sample(true, g.M(), frac, seed))
}

// SampleEdges returns the sub-digraph obtained by keeping each arc with
// probability frac, vertex set unchanged (see Undirected.SampleEdges).
func (d *Directed) SampleEdges(frac float64, seed int64) *Directed {
	if frac >= 1 {
		return d
	}
	return NewDirected(d.N(), d.out.sample(false, d.M(), frac, seed))
}

// sample keeps each pair of walk(upper) with probability frac, drawing one
// number per pair in CSR order; m is the pair count.
func (c csr) sample(upper bool, m int64, frac float64, seed int64) []Edge {
	frac = max(frac, 0)
	rng := rand.New(rand.NewSource(seed))
	kept := make([]Edge, 0, int(float64(m)*frac)+16)
	c.walk(upper, func(u, v int32) error {
		if rng.Float64() < frac {
			kept = append(kept, Edge{u, v})
		}
		return nil
	})
	return kept
}
