package graph

import "slices"

// Arc-level accessors used by the edge-peeling DDS algorithms, which need a
// stable dense id per arc. Arc ids are positions in the out-CSR array:
// the arcs leaving u occupy ids [lo, hi) with lo, hi = d.OutArcRange(u).

// OutArcRange returns the half-open range of arc ids leaving u.
func (d *Directed) OutArcRange(u int32) (lo, hi int64) {
	return d.out.off[u], d.out.off[u+1]
}

// ArcHead returns the head vertex of arc id.
func (d *Directed) ArcHead(id int64) int32 { return d.out.adj[id] }

// ArcTails returns, for every arc id, its tail vertex — the inverse of the
// CSR offsets, materialized once for algorithms that walk arcs by id.
func (d *Directed) ArcTails() []int32 {
	tails := make([]int32, d.M())
	for u := int32(0); int(u) < d.N(); u++ {
		lo, hi := d.OutArcRange(u)
		for id := lo; id < hi; id++ {
			tails[id] = u
		}
	}
	return tails
}

// InArcIDs returns, for each vertex v, the out-CSR arc ids of v's incoming
// arcs, aligned with InNeighbors(v): the i-th id corresponds to the arc
// from InNeighbors(v)[i] to v. Built in O(m) with a per-tail cursor; valid
// because both adjacency sides are sorted, so the k-th occurrence of tail u
// in any in-list order that scans u's out-list monotonically matches up.
func (d *Directed) InArcIDs() []int64 {
	ids := make([]int64, d.M())
	cursor := slices.Clone(d.out.off[:d.N()])
	for v := int32(0); int(v) < d.N(); v++ {
		lo, hi := d.in.off[v], d.in.off[v+1]
		for i := lo; i < hi; i++ {
			u := d.in.adj[i]
			// Scan u's out-list forward to v. Each tail's cursor moves
			// forward only, and in-lists are visited in increasing head v,
			// so u's out-list (sorted by head) is consumed in order.
			c := cursor[u]
			for d.out.adj[c] != v {
				c++
			}
			ids[i] = c
			cursor[u] = c + 1
		}
	}
	return ids
}
