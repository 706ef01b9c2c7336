package core

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// Dynamic maintains core numbers — and therefore the k*-core and its
// 2-approximate densest subgraph — under edge insertions and deletions,
// the dynamic-graph setting of the paper's related work ([32]). It uses
// the classical traversal algorithm (Sarıyüce et al. / Li, Yu & Mao):
// inserting or deleting an edge changes core numbers by at most one, and
// only inside the connected region of the lower endpoint's core-number
// class, so each update touches a small neighborhood instead of
// recomputing the decomposition.
//
// The adjacency is the graph's only edge store: every neighbor list is
// kept strictly ascending, so membership is a binary search and the
// current graph materializes in canonical order.
type Dynamic struct {
	adj [][]int32
	k   []int32
	// Repair scratch, owned here so an update allocates nothing per edge:
	// mark[v] == epoch flags v within the current update (a candidate on
	// insert, a demoted vertex on delete), and cnt[v] is a flagged
	// candidate's count of neighbors that can sit in the raised core.
	// cand and queue keep their capacity across updates.
	mark        []uint32
	cnt         []int32
	epoch       uint32
	cand, queue []int32
}

// NewDynamic seeds the structure from a static graph: core numbers via
// the serial decomposition, neighbor lists copied from the CSR (already
// ascending) into one backing array.
func NewDynamic(g *graph.Undirected) *Dynamic {
	n := g.N()
	d := &Dynamic{
		adj:  make([][]int32, n),
		k:    BZ(g),
		mark: make([]uint32, n),
		cnt:  make([]int32, n),
	}
	store := make([]int32, 0, 2*g.M())
	for v := range d.adj {
		lo := len(store)
		store = append(store, g.Neighbors(int32(v))...)
		// Capped, so growing one list reallocates that list alone.
		d.adj[v] = store[lo:len(store):len(store)]
	}
	return d
}

// N returns the vertex count.
func (d *Dynamic) N() int { return len(d.adj) }

// Degree returns v's current degree.
func (d *Dynamic) Degree(v int32) int32 { return int32(len(d.adj[v])) }

// HasEdge reports whether {u, v} is currently an edge.
func (d *Dynamic) HasEdge(u, v int32) bool {
	_, ok := slices.BinarySearch(d.adj[u], v)
	return ok
}

// CoreNumbers returns the maintained core numbers (aliases internal state;
// do not modify).
func (d *Dynamic) CoreNumbers() []int32 { return d.k }

// KStarCore returns k* and the current k*-core vertex set.
func (d *Dynamic) KStarCore() (int32, []int32) {
	return KStarCore(d.k)
}

// KStarDensity returns k*, the k*-core vertex set, and the edge density of
// the subgraph it induces, computed directly from the maintained adjacency
// in O(volume of the core) — without materializing the graph. This is the
// standing 2-approximate densest-subgraph answer a serving tier reads after
// every mutation batch.
func (d *Dynamic) KStarDensity() (kstar int32, vertices []int32, density float64) {
	kstar, vertices = KStarCore(d.k)
	if len(vertices) == 0 {
		return kstar, vertices, 0
	}
	var twiceEdges int64
	for _, v := range vertices {
		for _, x := range d.adj[v] {
			if d.k[x] >= kstar {
				twiceEdges++
			}
		}
	}
	return kstar, vertices, float64(twiceEdges) / 2 / float64(len(vertices))
}

// Graph materializes the current graph. The lists are walked in order, so
// the edge list reaches the builder already canonical.
func (d *Dynamic) Graph() *graph.Undirected {
	var arcs int
	for _, nb := range d.adj {
		arcs += len(nb)
	}
	edges := make([]graph.Edge, 0, arcs/2)
	for u, nb := range d.adj {
		for _, v := range nb {
			if int32(u) < v {
				edges = append(edges, graph.Edge{U: int32(u), V: v})
			}
		}
	}
	return graph.NewUndirected(d.N(), edges)
}

// SetEdge makes {u, v} present or absent without repairing core numbers,
// and reports whether the edge set changed (self-loops never do). The core
// numbers are stale until the structure is reseeded from Graph(): this is
// the bulk path for batches large enough that one decomposition beats
// per-edge repair. Panics on out-of-range ids.
func (d *Dynamic) SetEdge(u, v int32, present bool) bool {
	d.check(u, v)
	if present {
		return d.link(u, v)
	}
	return d.unlink(u, v)
}

// link inserts {u, v} into both sorted lists; false if it is present or a
// self-loop.
func (d *Dynamic) link(u, v int32) bool {
	i, found := slices.BinarySearch(d.adj[u], v)
	if u == v || found {
		return false
	}
	d.adj[u] = slices.Insert(d.adj[u], i, v)
	j, _ := slices.BinarySearch(d.adj[v], u)
	d.adj[v] = slices.Insert(d.adj[v], j, u)
	return true
}

// unlink removes {u, v} from both sorted lists; false if it is absent.
func (d *Dynamic) unlink(u, v int32) bool {
	i, found := slices.BinarySearch(d.adj[u], v)
	if !found {
		return false
	}
	d.adj[u] = slices.Delete(d.adj[u], i, i+1)
	j, _ := slices.BinarySearch(d.adj[v], u)
	d.adj[v] = slices.Delete(d.adj[v], j, j+1)
	return true
}

// nextEpoch starts a new update's marks. When the counter wraps, every
// mark is cleared so no stale flag can equal the new epoch.
func (d *Dynamic) nextEpoch() {
	d.epoch++
	if d.epoch == 0 {
		clear(d.mark)
		d.epoch = 1
	}
}

// InsertEdge adds {u, v} and repairs the core numbers. Inserting an
// already-present edge or a self-loop is a no-op (applied false). It
// reports whether the edge was structurally applied and how many vertices
// had their core number repaired — the incremental work size a serving
// tier histograms. Panics on out-of-range ids.
func (d *Dynamic) InsertEdge(u, v int32) (applied bool, changed int) {
	d.check(u, v)
	if !d.link(u, v) {
		return false, 0
	}
	kmin := min(d.k[u], d.k[v])
	d.nextEpoch()
	// Candidate region: the kmin-class vertices reachable from the lower
	// endpoint(s) through kmin-class paths of *expandable* vertices. Only
	// they can be promoted, and by exactly one. The expansion prune is the
	// TRAVERSAL optimization: a vertex with at most kmin neighbors of
	// class >= kmin can never be promoted, and the promoted region is
	// connected through promoted vertices, so the BFS need not cross it —
	// without this, every update would walk its entire core-number class
	// (which is most of a sparse graph for small kmin).
	cand := d.candidateRegion(u, v, kmin)
	// Peel the candidates: w survives (is promoted) iff it keeps more
	// than kmin neighbors that will sit in a core of at least kmin+1 —
	// neighbors of higher class, or surviving candidates. A candidate is
	// evicted once its count drops to kmin; the peel is confluent, so the
	// order candidates are visited in does not change the survivors.
	for _, w := range cand {
		var c int32
		for _, x := range d.adj[w] {
			if d.k[x] > kmin || d.mark[x] == d.epoch {
				c++
			}
		}
		d.cnt[w] = c
	}
	queue := d.queue[:0]
	for _, w := range cand {
		if d.cnt[w] <= kmin {
			queue = append(queue, w)
		}
	}
	for len(queue) > 0 {
		w := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, x := range d.adj[w] {
			if d.mark[x] == d.epoch && d.cnt[x] > kmin {
				d.cnt[x]--
				if d.cnt[x] <= kmin {
					queue = append(queue, x)
				}
			}
		}
	}
	d.queue = queue
	for _, w := range cand {
		if d.cnt[w] > kmin {
			d.k[w] = kmin + 1
			changed++
		}
	}
	return true, changed
}

// DeleteEdge removes {u, v} and repairs the core numbers. Deleting a
// missing edge or a self-loop is a no-op (applied false). Like InsertEdge
// it reports the structural outcome and the repair size.
func (d *Dynamic) DeleteEdge(u, v int32) (applied bool, changed int) {
	d.check(u, v)
	if !d.unlink(u, v) {
		return false, 0
	}
	kmin := min(d.k[u], d.k[v])
	d.nextEpoch()
	// Only kmin-class vertices around the endpoints can be demoted, by
	// exactly one. Demote w when it no longer has kmin neighbors of class
	// >= kmin; each demotion lowers its neighbors' supports, so demotions
	// cascade within the class. Supports are recomputed on every visit —
	// each recount is one adjacency scan and the cascade only revisits a
	// vertex when a neighbor was demoted, keeping the update local.
	queue := d.queue[:0]
	visit := func(w int32) {
		if d.k[w] != kmin || d.mark[w] == d.epoch {
			return
		}
		if d.support(w, kmin) < kmin {
			d.mark[w] = d.epoch
			queue = append(queue, w)
		}
	}
	visit(u)
	visit(v)
	for len(queue) > 0 {
		w := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		d.k[w] = kmin - 1
		changed++
		for _, x := range d.adj[w] {
			visit(x)
		}
	}
	d.queue = queue
	return true, changed
}

// support counts w's neighbors of class >= kmin under the current k.
func (d *Dynamic) support(w int32, kmin int32) int32 {
	var c int32
	for _, x := range d.adj[w] {
		if d.k[x] >= kmin {
			c++
		}
	}
	return c
}

// candidateRegion collects — and marks with the current epoch — the
// k == kmin vertices reachable from whichever endpoints sit in that class,
// expanding only through vertices whose optimistic support (neighbors of
// class >= kmin) exceeds kmin — the others can never be promoted, and the
// promoted region is connected through promoted vertices, so they are dead
// ends for the search. Non-expandable vertices are still *returned* (the
// peel evicts them and their eviction must propagate into the candidate
// counts). The result aliases d.cand.
func (d *Dynamic) candidateRegion(u, v, kmin int32) []int32 {
	out, stack := d.cand[:0], d.queue[:0]
	visit := func(w int32) {
		if d.k[w] != kmin || d.mark[w] == d.epoch {
			return
		}
		d.mark[w] = d.epoch
		out = append(out, w)
		if d.support(w, kmin) > kmin {
			stack = append(stack, w)
		}
	}
	visit(u)
	visit(v)
	for len(stack) > 0 {
		w := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, x := range d.adj[w] {
			visit(x)
		}
	}
	d.cand, d.queue = out, stack
	return out
}

func (d *Dynamic) check(u, v int32) {
	if u < 0 || int(u) >= d.N() || v < 0 || int(v) >= d.N() {
		panic(fmt.Sprintf("core: edge (%d,%d) outside vertex range [0,%d)", u, v, d.N()))
	}
}
