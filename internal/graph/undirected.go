package graph

// Edge is one undirected edge (or one directed arc U->V in package contexts
// that say so). The builder treats (U,V) and (V,U) as the same undirected
// edge.
type Edge struct {
	U, V int32
}

// Undirected is an immutable simple undirected graph: one CSR adjacency
// holding each edge in both endpoints' lists. Neighbor lists are sorted
// ascending and contain no duplicates or self-loops.
type Undirected struct {
	adj csr
}

// NewUndirected builds a graph on vertices 0..n-1 from an edge list.
// Self-loops and duplicate (parallel) edges are dropped; edges may be given
// in either orientation. It panics if an endpoint is outside [0, n); code
// handling untrusted input should use NewUndirectedChecked instead.
func NewUndirected(n int, edges []Edge) *Undirected {
	return must(NewUndirectedChecked(n, edges))
}

// NewUndirectedChecked is NewUndirected with the validation failures —
// negative n, or an edge endpoint outside [0, n) — reported as errors
// instead of panics. It is the builder every path that consumes untrusted
// bytes (file loaders, the HTTP service) goes through.
func NewUndirectedChecked(n int, edges []Edge) (*Undirected, error) {
	if err := checkRange(n, edges, "edge"); err != nil {
		return nil, err
	}
	return &Undirected{adj: newCSR(n, edges, true, true)}, nil
}

// N returns the number of vertices.
func (g *Undirected) N() int { return len(g.adj.off) - 1 }

// M returns the number of (undirected) edges.
func (g *Undirected) M() int64 { return int64(len(g.adj.adj)) / 2 }

// Degree returns the degree of v.
func (g *Undirected) Degree(v int32) int32 { return g.adj.degree(v) }

// Neighbors returns v's sorted neighbor list. The slice aliases the graph's
// internal storage and must not be modified.
func (g *Undirected) Neighbors(v int32) []int32 { return g.adj.list(v) }

// HasEdge reports whether {u, v} is an edge, by binary search in the shorter
// neighbor list.
func (g *Undirected) HasEdge(u, v int32) bool {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	return g.adj.has(u, v)
}

// MaxDegree returns the maximum degree, or 0 on an empty graph.
func (g *Undirected) MaxDegree() int32 { return g.adj.maxDegree() }

// Degrees returns a fresh slice of all vertex degrees.
func (g *Undirected) Degrees() []int32 {
	d := make([]int32, g.N())
	for v := range d {
		d[v] = g.Degree(int32(v))
	}
	return d
}

// Edges returns the edge list with U < V in each edge, in CSR order.
func (g *Undirected) Edges() []Edge { return g.adj.edges(true, g.M()) }

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
	seen := make(map[int32]bool, len(vertices))
	original = make([]int32, 0, len(vertices))
	for _, v := range vertices {
		if !seen[v] {
			seen[v] = true
			original = append(original, v)
		}
	}
	return NewUndirected(len(original), g.adj.induced(original, true)), original
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
