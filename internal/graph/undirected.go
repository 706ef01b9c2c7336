package graph

import (
	"fmt"
	"sort"
)

// Edge is one undirected edge (or one directed arc U->V in package contexts
// that say so). The builder treats (U,V) and (V,U) as the same undirected
// edge.
type Edge struct {
	U, V int32
}

// Undirected is an immutable simple undirected graph in CSR form. Neighbor
// lists are sorted ascending and contain no duplicates or self-loops.
type Undirected struct {
	offsets []int64 // len n+1; neighbor list of v is adj[offsets[v]:offsets[v+1]]
	adj     []int32
}

// NewUndirected builds a graph on vertices 0..n-1 from an edge list.
// Self-loops and duplicate (parallel) edges are dropped; edges may be given
// in either orientation. It panics if an endpoint is outside [0, n); code
// handling untrusted input should use NewUndirectedChecked instead.
func NewUndirected(n int, edges []Edge) *Undirected {
	g, err := NewUndirectedChecked(n, edges)
	if err != nil {
		panic(err.Error())
	}
	return g
}

// NewUndirectedChecked is NewUndirected with the validation failures —
// negative n, or an edge endpoint outside [0, n) — reported as errors
// instead of panics. It is the builder every path that consumes untrusted
// bytes (file loaders, the HTTP service) goes through.
func NewUndirectedChecked(n int, edges []Edge) (*Undirected, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	deg := make([]int64, n+1)
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) outside vertex range [0,%d)", e.U, e.V, n)
		}
		if e.U == e.V {
			continue
		}
		deg[e.U+1]++
		deg[e.V+1]++
	}
	offsets := deg // reuse: prefix-sum in place
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	adj := make([]int32, offsets[n])
	fill := make([]int64, n)
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		adj[offsets[e.U]+fill[e.U]] = e.V
		fill[e.U]++
		adj[offsets[e.V]+fill[e.V]] = e.U
		fill[e.V]++
	}
	g := &Undirected{offsets: offsets, adj: adj}
	g.sortAndDedup()
	return g, nil
}

// sortAndDedup sorts every neighbor list and removes duplicates, compacting
// the CSR arrays in place.
func (g *Undirected) sortAndDedup() {
	n := g.N()
	newOff := make([]int64, n+1)
	var w int64
	for v := 0; v < n; v++ {
		lo, hi := g.offsets[v], g.offsets[v+1]
		list := g.adj[lo:hi]
		sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
		start := w
		for i := range list {
			if i > 0 && list[i] == list[i-1] {
				continue
			}
			g.adj[w] = list[i]
			w++
		}
		newOff[v] = start
	}
	newOff[n] = w
	// shift starts into place: newOff[v] currently holds start of v
	g.offsets = newOff
	g.adj = g.adj[:w:w]
}

// N returns the number of vertices.
func (g *Undirected) N() int { return len(g.offsets) - 1 }

// M returns the number of (undirected) edges.
func (g *Undirected) M() int64 { return g.offsets[g.N()] / 2 }

// Degree returns the degree of v.
func (g *Undirected) Degree(v int32) int32 {
	return int32(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns v's sorted neighbor list. The slice aliases the graph's
// internal storage and must not be modified.
func (g *Undirected) Neighbors(v int32) []int32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether {u, v} is an edge, by binary search in the shorter
// neighbor list.
func (g *Undirected) HasEdge(u, v int32) bool {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	list := g.Neighbors(u)
	i := sort.Search(len(list), func(i int) bool { return list[i] >= v })
	return i < len(list) && list[i] == v
}

// MaxDegree returns the maximum degree, or 0 on an empty graph.
func (g *Undirected) MaxDegree() int32 {
	var max int32
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(int32(v)); d > max {
			max = d
		}
	}
	return max
}

// Degrees returns a fresh slice of all vertex degrees.
func (g *Undirected) Degrees() []int32 {
	d := make([]int32, g.N())
	for v := range d {
		d[v] = g.Degree(int32(v))
	}
	return d
}

// Edges returns the edge list with U < V in each edge, in CSR order.
func (g *Undirected) Edges() []Edge {
	out := make([]Edge, 0, g.M())
	for u := int32(0); int(u) < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				out = append(out, Edge{u, v})
			}
		}
	}
	return out
}

// Density returns |E|/|V|, the paper's Definition 1 applied to the whole
// graph; 0 on an empty graph.
func (g *Undirected) Density() float64 {
	if g.N() == 0 {
		return 0
	}
	return float64(g.M()) / float64(g.N())
}

// Induced returns the subgraph induced by the given vertex set along with
// the mapping back to original ids: vertex i of the subgraph is
// original[i]. Duplicate ids in the set are ignored.
func (g *Undirected) Induced(vertices []int32) (sub *Undirected, original []int32) {
	local := make(map[int32]int32, len(vertices))
	original = make([]int32, 0, len(vertices))
	for _, v := range vertices {
		if _, ok := local[v]; ok {
			continue
		}
		local[v] = int32(len(original))
		original = append(original, v)
	}
	var edges []Edge
	for _, u := range original {
		lu := local[u]
		for _, v := range g.Neighbors(u) {
			if lv, ok := local[v]; ok && lu < lv {
				edges = append(edges, Edge{lu, lv})
			}
		}
	}
	return NewUndirected(len(original), edges), original
}

// InducedDensity returns |E(S)|/|S| for the subgraph induced by S without
// materializing it, using a bitmap membership test; 0 for an empty S.
func (g *Undirected) InducedDensity(s []int32) float64 {
	if len(s) == 0 {
		return 0
	}
	in := make([]bool, g.N())
	uniq := make([]int32, 0, len(s))
	for _, v := range s {
		if !in[v] {
			in[v] = true
			uniq = append(uniq, v)
		}
	}
	cnt := len(uniq)
	var edges int64
	for _, u := range uniq {
		for _, v := range g.Neighbors(u) {
			if in[v] && u < v {
				edges++
			}
		}
	}
	return float64(edges) / float64(cnt)
}

// FilterEdges returns the subgraph keeping exactly the edges for which
// keep returns true (called once per edge with U < V); the vertex set is
// unchanged.
func (g *Undirected) FilterEdges(keep func(u, v int32) bool) *Undirected {
	var edges []Edge
	for u := int32(0); int(u) < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v && keep(u, v) {
				edges = append(edges, Edge{U: u, V: v})
			}
		}
	}
	return NewUndirected(g.N(), edges)
}
