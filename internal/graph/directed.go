package graph

import (
	"fmt"
	"math"
	"sort"
)

// Directed is an immutable simple directed graph in dual-CSR form: both the
// out-adjacency and the in-adjacency are stored, because the DDS algorithms
// peel on out-degrees and in-degrees simultaneously. Arc lists are sorted
// and deduplicated; self-loops are dropped by the builder (the density of
// Definition 3 is unaffected by the convention and the [x,y]-core peeling of
// the paper assumes simple digraphs).
type Directed struct {
	outOff []int64
	outAdj []int32
	inOff  []int64
	inAdj  []int32
}

// NewDirected builds a digraph on vertices 0..n-1 from an arc list, where
// Edge{U, V} is the arc U -> V. Duplicate arcs and self-loops are dropped.
// It panics if an endpoint is outside [0, n); code handling untrusted input
// should use NewDirectedChecked instead.
func NewDirected(n int, arcs []Edge) *Directed {
	d, err := NewDirectedChecked(n, arcs)
	if err != nil {
		panic(err.Error())
	}
	return d
}

// NewDirectedChecked is NewDirected with the validation failures — negative
// n, or an arc endpoint outside [0, n) — reported as errors instead of
// panics, for paths that consume untrusted bytes.
func NewDirectedChecked(n int, arcs []Edge) (*Directed, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	outDeg := make([]int64, n+1)
	inDeg := make([]int64, n+1)
	for _, e := range arcs {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("graph: arc (%d,%d) outside vertex range [0,%d)", e.U, e.V, n)
		}
		if e.U == e.V {
			continue
		}
		outDeg[e.U+1]++
		inDeg[e.V+1]++
	}
	for v := 0; v < n; v++ {
		outDeg[v+1] += outDeg[v]
		inDeg[v+1] += inDeg[v]
	}
	outAdj := make([]int32, outDeg[n])
	inAdj := make([]int32, inDeg[n])
	outFill := make([]int64, n)
	inFill := make([]int64, n)
	for _, e := range arcs {
		if e.U == e.V {
			continue
		}
		outAdj[outDeg[e.U]+outFill[e.U]] = e.V
		outFill[e.U]++
		inAdj[inDeg[e.V]+inFill[e.V]] = e.U
		inFill[e.V]++
	}
	d := &Directed{outOff: outDeg, outAdj: outAdj, inOff: inDeg, inAdj: inAdj}
	d.sortAndDedup()
	return d, nil
}

func (d *Directed) sortAndDedup() {
	n := d.N()
	dedupSide := func(off []int64, adj []int32) ([]int64, []int32) {
		newOff := make([]int64, n+1)
		var w int64
		for v := 0; v < n; v++ {
			list := adj[off[v]:off[v+1]]
			sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
			newOff[v] = w
			for i := range list {
				if i > 0 && list[i] == list[i-1] {
					continue
				}
				adj[w] = list[i]
				w++
			}
		}
		newOff[n] = w
		return newOff, adj[:w:w]
	}
	d.outOff, d.outAdj = dedupSide(d.outOff, d.outAdj)
	d.inOff, d.inAdj = dedupSide(d.inOff, d.inAdj)
}

// N returns the number of vertices.
func (d *Directed) N() int { return len(d.outOff) - 1 }

// M returns the number of arcs.
func (d *Directed) M() int64 { return d.outOff[d.N()] }

// OutDegree returns the out-degree of v.
func (d *Directed) OutDegree(v int32) int32 { return int32(d.outOff[v+1] - d.outOff[v]) }

// InDegree returns the in-degree of v.
func (d *Directed) InDegree(v int32) int32 { return int32(d.inOff[v+1] - d.inOff[v]) }

// OutNeighbors returns v's sorted out-neighbor list (aliases internal
// storage; do not modify).
func (d *Directed) OutNeighbors(v int32) []int32 { return d.outAdj[d.outOff[v]:d.outOff[v+1]] }

// InNeighbors returns v's sorted in-neighbor list (aliases internal storage;
// do not modify).
func (d *Directed) InNeighbors(v int32) []int32 { return d.inAdj[d.inOff[v]:d.inOff[v+1]] }

// HasArc reports whether the arc u -> v exists.
func (d *Directed) HasArc(u, v int32) bool {
	list := d.OutNeighbors(u)
	i := sort.Search(len(list), func(i int) bool { return list[i] >= v })
	return i < len(list) && list[i] == v
}

// MaxOutDegree returns the maximum out-degree, or 0 on an empty graph.
func (d *Directed) MaxOutDegree() int32 {
	var max int32
	for v := 0; v < d.N(); v++ {
		if x := d.OutDegree(int32(v)); x > max {
			max = x
		}
	}
	return max
}

// MaxInDegree returns the maximum in-degree, or 0 on an empty graph.
func (d *Directed) MaxInDegree() int32 {
	var max int32
	for v := 0; v < d.N(); v++ {
		if x := d.InDegree(int32(v)); x > max {
			max = x
		}
	}
	return max
}

// Arcs returns the arc list in out-CSR order.
func (d *Directed) Arcs() []Edge {
	out := make([]Edge, 0, d.M())
	for u := int32(0); int(u) < d.N(); u++ {
		for _, v := range d.OutNeighbors(u) {
			out = append(out, Edge{u, v})
		}
	}
	return out
}

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
	local := make(map[int32]int32, len(vertices))
	original = make([]int32, 0, len(vertices))
	for _, v := range dedup(vertices) {
		local[v] = int32(len(original))
		original = append(original, v)
	}
	var arcs []Edge
	for _, u := range original {
		lu := local[u]
		for _, v := range d.OutNeighbors(u) {
			if lv, ok := local[v]; ok {
				arcs = append(arcs, Edge{lu, lv})
			}
		}
	}
	return NewDirected(len(original), arcs), original
}

// Underlying returns the undirected graph obtained by forgetting arc
// directions (and merging antiparallel arc pairs into one edge).
func (d *Directed) Underlying() *Undirected {
	return NewUndirected(d.N(), d.Arcs())
}

func dedup(s []int32) []int32 {
	if len(s) <= 1 {
		return s
	}
	c := make([]int32, len(s))
	copy(c, s)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	w := 1
	for i := 1; i < len(c); i++ {
		if c[i] != c[i-1] {
			c[w] = c[i]
			w++
		}
	}
	return c[:w]
}

// Reverse returns the digraph with every arc flipped. It shares the
// underlying CSR arrays (out and in sides swap roles), so it is O(1) and
// must be treated as immutable like its source.
func (d *Directed) Reverse() *Directed {
	return &Directed{outOff: d.inOff, outAdj: d.inAdj, inOff: d.outOff, inAdj: d.outAdj}
}
