package graph

import (
	"fmt"
	"slices"
)

// csr is one adjacency in compressed-sparse-row form: the list of vertex v
// is adj[off[v]:off[v+1]], sorted ascending, without duplicates or v itself.
// Undirected holds one; Directed holds an out-adjacency and an in-adjacency.
type csr struct {
	off []int64 // len n+1
	adj []int32
}

// checkRange reports a negative n or an endpoint outside [0, n); what names
// a pair ("edge" or "arc") in the message.
func checkRange(n int, edges []Edge, what string) error {
	if n < 0 {
		return fmt.Errorf("graph: negative vertex count %d", n)
	}
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return fmt.Errorf("graph: %s (%d,%d) outside vertex range [0,%d)", what, e.U, e.V, n)
		}
	}
	return nil
}

// must panics with err's message if err is non-nil: the unchecked
// builders' contract.
func must[G any](g G, err error) G {
	if err != nil {
		panic(err.Error())
	}
	return g
}

// newCSR builds the adjacency of vertices 0..n-1 in which each pair (u, v)
// of edges puts v in u's list when fwd is set and u in v's list when bwd is
// set. Self-loops are dropped and duplicates merged. The endpoints must lie
// in [0, n) (see checkRange).
func newCSR(n int, edges []Edge, fwd, bwd bool) csr {
	off := make([]int64, n+1)
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		if fwd {
			off[e.U+1]++
		}
		if bwd {
			off[e.V+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	adj := make([]int32, off[n])
	next := slices.Clone(off[:n])
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		if fwd {
			adj[next[e.U]] = e.V
			next[e.U]++
		}
		if bwd {
			adj[next[e.V]] = e.U
			next[e.V]++
		}
	}
	// Sort each list and compact it leftward over the duplicates; off[v]
	// is rewritten only after v's old bounds are read.
	var w int64
	for v := 0; v < n; v++ {
		list := adj[off[v]:off[v+1]]
		slices.Sort(list)
		off[v] = w
		for i, u := range list {
			if i == 0 || u != list[i-1] {
				adj[w] = u
				w++
			}
		}
	}
	off[n] = w
	return csr{off: off, adj: adj[:w:w]}
}

func (c csr) n() int { return len(c.off) - 1 }

func (c csr) list(v int32) []int32 { return c.adj[c.off[v]:c.off[v+1]] }

func (c csr) degree(v int32) int32 { return int32(c.off[v+1] - c.off[v]) }

func (c csr) maxDegree() int32 {
	var d int64
	for v := 1; v < len(c.off); v++ {
		d = max(d, c.off[v]-c.off[v-1])
	}
	return int32(d)
}

// has reports whether v is in u's list, by binary search.
func (c csr) has(u, v int32) bool {
	_, ok := slices.BinarySearch(c.list(u), v)
	return ok
}

// walk calls visit(u, v) for every v in u's list, u ascending, in CSR
// order; with upper set only for u < v, so an undirected edge comes once.
// It stops at, and returns, the first error visit returns.
func (c csr) walk(upper bool, visit func(u, v int32) error) error {
	for u := int32(0); int(u) < c.n(); u++ {
		for _, v := range c.list(u) {
			if upper && v <= u {
				continue
			}
			if err := visit(u, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// edges returns the pairs of walk(upper) as an edge list of capacity m. It
// loops directly: a call through walk's visit per pair doubles its time.
func (c csr) edges(upper bool, m int64) []Edge {
	out := make([]Edge, 0, m)
	for u := int32(0); int(u) < c.n(); u++ {
		for _, v := range c.list(u) {
			if !upper || u < v {
				out = append(out, Edge{u, v})
			}
		}
	}
	return out
}

// induced returns the pairs of c with both ends in original, a list of
// distinct vertices, relabeled by their positions in it; with upper set,
// only those whose first end comes first in original.
func (c csr) induced(original []int32, upper bool) []Edge {
	local := make(map[int32]int32, len(original))
	for i, v := range original {
		local[v] = int32(i)
	}
	var edges []Edge
	for lu, u := range original {
		for _, v := range c.list(u) {
			if lv, ok := local[v]; ok && (!upper || int32(lu) < lv) {
				edges = append(edges, Edge{int32(lu), lv})
			}
		}
	}
	return edges
}
