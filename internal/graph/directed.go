package graph

import (
	"math"
	"slices"
)

// Directed is an immutable simple directed graph in dual-CSR form: both the
// out-adjacency and the in-adjacency are stored, because the DDS algorithms
// peel on out-degrees and in-degrees simultaneously. Arc lists are sorted
// and deduplicated; self-loops are dropped by the builder (the density of
// Definition 3 is unaffected by the convention and the [x,y]-core peeling of
// the paper assumes simple digraphs).
type Directed struct {
	out, in csr
}

// NewDirected builds a digraph on vertices 0..n-1 from an arc list, where
// Edge{U, V} is the arc U -> V. Duplicate arcs and self-loops are dropped.
// It panics if an endpoint is outside [0, n); code handling untrusted input
// should use NewDirectedChecked instead.
func NewDirected(n int, arcs []Edge) *Directed {
	return must(NewDirectedChecked(n, arcs))
}

// NewDirectedChecked is NewDirected with the validation failures — negative
// n, or an arc endpoint outside [0, n) — reported as errors instead of
// panics, for paths that consume untrusted bytes.
func NewDirectedChecked(n int, arcs []Edge) (*Directed, error) {
	if err := checkRange(n, arcs, "arc"); err != nil {
		return nil, err
	}
	return &Directed{out: newCSR(n, arcs, true, false), in: newCSR(n, arcs, false, true)}, nil
}

// N returns the number of vertices.
func (d *Directed) N() int { return len(d.out.off) - 1 }

// M returns the number of arcs.
func (d *Directed) M() int64 { return int64(len(d.out.adj)) }

// OutDegree returns the out-degree of v.
func (d *Directed) OutDegree(v int32) int32 { return d.out.degree(v) }

// InDegree returns the in-degree of v.
func (d *Directed) InDegree(v int32) int32 { return d.in.degree(v) }

// OutNeighbors returns v's sorted out-neighbor list (aliases internal
// storage; do not modify).
func (d *Directed) OutNeighbors(v int32) []int32 { return d.out.list(v) }

// InNeighbors returns v's sorted in-neighbor list (aliases internal storage;
// do not modify).
func (d *Directed) InNeighbors(v int32) []int32 { return d.in.list(v) }

// HasArc reports whether the arc u -> v exists.
func (d *Directed) HasArc(u, v int32) bool { return d.out.has(u, v) }

// MaxOutDegree returns the maximum out-degree, or 0 on an empty graph.
func (d *Directed) MaxOutDegree() int32 { return d.out.maxDegree() }

// MaxInDegree returns the maximum in-degree, or 0 on an empty graph.
func (d *Directed) MaxInDegree() int32 { return d.in.maxDegree() }

// Arcs returns the arc list in out-CSR order.
func (d *Directed) Arcs() []Edge { return d.out.edges(false, d.M()) }

// EdgesST counts the arcs from set S to set T, i.e. |E(S, T)| of the paper's
// Definition 3. S and T need not be disjoint; duplicates within a set are
// ignored.
func (d *Directed) EdgesST(s, t []int32) int64 {
	inT := make([]bool, d.N())
	for _, v := range t {
		inT[v] = true
	}
	seen := make([]bool, d.N())
	var cnt int64
	for _, u := range s {
		if seen[u] {
			continue
		}
		seen[u] = true
		for _, v := range d.OutNeighbors(u) {
			if inT[v] {
				cnt++
			}
		}
	}
	return cnt
}

// DensityST returns ρ(S, T) = |E(S,T)| / sqrt(|S|·|T|) (Definition 3); 0 if
// either set is empty. Duplicate ids within a set are ignored.
func (d *Directed) DensityST(s, t []int32) float64 {
	su := dedup(s)
	tu := dedup(t)
	if len(su) == 0 || len(tu) == 0 {
		return 0
	}
	e := d.EdgesST(su, tu)
	return float64(e) / math.Sqrt(float64(len(su))*float64(len(tu)))
}

// Induced returns the vertex-induced sub-digraph on the given set (all arcs
// with both endpoints in the set), re-labeled, with the id mapping.
func (d *Directed) Induced(vertices []int32) (sub *Directed, original []int32) {
	original = dedup(vertices)
	return NewDirected(len(original), d.out.induced(original, false)), original
}

// Underlying returns the undirected graph obtained by forgetting arc
// directions (and merging antiparallel arc pairs into one edge).
func (d *Directed) Underlying() *Undirected {
	return NewUndirected(d.N(), d.Arcs())
}

// dedup returns a sorted copy of s without duplicates.
func dedup(s []int32) []int32 {
	c := append(make([]int32, 0, len(s)), s...)
	slices.Sort(c)
	return slices.Compact(c)
}

// Reverse returns the digraph with every arc flipped. It shares the
// underlying CSR arrays (out and in sides swap roles), so it is O(1) and
// must be treated as immutable like its source.
func (d *Directed) Reverse() *Directed {
	return &Directed{out: d.in, in: d.out}
}
