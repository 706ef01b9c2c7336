package maxflow

import (
	"context"
	"math"
)

// Eps is the tolerance under which residual capacities are treated as zero.
// The densest-subgraph flow searches have candidate densities that are
// ratios of small integers, so 1e-9 cleanly separates distinct candidates
// on every graph this repository targets.
const Eps = 1e-9

type arc struct {
	to  int32
	rev int32 // index of the reverse arc in Network.arcs[to]
	cap float64
}

// Network is a flow network under construction / being solved. Nodes are
// dense ints 0..n-1; arcs are added with AddArc and each automatically gets
// a zero-capacity reverse arc.
type Network struct {
	arcs [][]arc
	// BFS/DFS scratch, sized on first Solve.
	level []int32
	iter  []int32
	queue []int32
	// Cooperative cancellation (SetContext); polled between phases.
	ctx      context.Context
	canceled bool
}

// NewNetwork returns an empty network with n nodes.
func NewNetwork(n int) *Network {
	return &Network{arcs: make([][]arc, n)}
}

// N returns the node count.
func (nw *Network) N() int { return len(nw.arcs) }

// AddArc adds a directed arc from u to v with the given capacity (and its
// zero-capacity residual twin). Negative capacities are clamped to zero.
func (nw *Network) AddArc(u, v int32, capacity float64) {
	if capacity < 0 {
		capacity = 0
	}
	nw.arcs[u] = append(nw.arcs[u], arc{to: v, rev: int32(len(nw.arcs[v])), cap: capacity})
	nw.arcs[v] = append(nw.arcs[v], arc{to: u, rev: int32(len(nw.arcs[u]) - 1), cap: 0})
}

// SetContext installs a context polled between blocking-flow phases (each
// one O(m) work): once ctx is done, Solve stops early and Canceled reports
// true. The residual network of an aborted Solve is meaningless — callers
// must discard MinCutSource output when Canceled returns true. A nil ctx
// (the default) never cancels.
func (nw *Network) SetContext(ctx context.Context) { nw.ctx = ctx }

// Canceled reports whether the last Solve was cut short by the context
// installed with SetContext.
func (nw *Network) Canceled() bool { return nw.canceled }

// expired polls the installed context.
func (nw *Network) expired() bool {
	return nw.ctx != nil && nw.ctx.Err() != nil
}

// bfs builds the level graph; returns false if t is unreachable.
func (nw *Network) bfs(s, t int32) bool {
	for i := range nw.level {
		nw.level[i] = -1
	}
	nw.queue = nw.queue[:0]
	nw.level[s] = 0
	nw.queue = append(nw.queue, s)
	for head := 0; head < len(nw.queue); head++ {
		u := nw.queue[head]
		for _, a := range nw.arcs[u] {
			if a.cap > Eps && nw.level[a.to] < 0 {
				nw.level[a.to] = nw.level[u] + 1
				nw.queue = append(nw.queue, a.to)
			}
		}
	}
	return nw.level[t] >= 0
}

// dfs sends blocking flow along the level graph.
func (nw *Network) dfs(u, t int32, f float64) float64 {
	if u == t {
		return f
	}
	for ; nw.iter[u] < int32(len(nw.arcs[u])); nw.iter[u]++ {
		a := &nw.arcs[u][nw.iter[u]]
		if a.cap <= Eps || nw.level[a.to] != nw.level[u]+1 {
			continue
		}
		d := nw.dfs(a.to, t, math.Min(f, a.cap))
		if d > Eps {
			a.cap -= d
			nw.arcs[a.to][a.rev].cap += d
			return d
		}
	}
	return 0
}

// Solve computes the maximum s-t flow and mutates the network into its
// residual form. It may be called once per network.
func (nw *Network) Solve(s, t int32) float64 {
	n := nw.N()
	nw.level = make([]int32, n)
	nw.iter = make([]int32, n)
	nw.queue = make([]int32, 0, n)
	var flow float64
	for nw.bfs(s, t) {
		if nw.expired() {
			nw.canceled = true
			return flow
		}
		for i := range nw.iter {
			nw.iter[i] = 0
		}
		for {
			f := nw.dfs(s, t, math.Inf(1))
			if f <= Eps {
				break
			}
			flow += f
		}
	}
	return flow
}

// MinCutSource returns the source side of a minimum s-t cut of the residual
// network left behind by Solve: every node reachable from s through arcs
// with residual capacity > Eps.
func (nw *Network) MinCutSource(s int32) []int32 {
	n := nw.N()
	seen := make([]bool, n)
	seen[s] = true
	stack := []int32{s}
	side := []int32{s}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range nw.arcs[u] {
			if a.cap > Eps && !seen[a.to] {
				seen[a.to] = true
				stack = append(stack, a.to)
				side = append(side, a.to)
			}
		}
	}
	return side
}
