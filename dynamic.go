package dsd

import "repro/internal/core"

// DynamicGraph maintains an undirected graph under edge insertions and
// deletions while keeping the core decomposition — and therefore the
// 2-approximate densest subgraph — up to date incrementally. Each update
// repairs core numbers locally (the traversal algorithm; core numbers move
// by at most one per edge change), avoiding recomputation: the
// dynamic-graph setting the paper's related work points at.
//
// DynamicGraph is not safe for concurrent use.
type DynamicGraph struct {
	d *core.Dynamic
}

// NewDynamicGraph seeds the structure from a static graph.
func NewDynamicGraph(g *Graph) *DynamicGraph {
	return &DynamicGraph{d: core.NewDynamic(g.g)}
}

// N returns the vertex count (fixed at construction).
func (dg *DynamicGraph) N() int { return dg.d.N() }

// Degree returns v's current degree.
func (dg *DynamicGraph) Degree(v int32) int32 { return dg.d.Degree(v) }

// HasEdge reports whether {u, v} is currently present.
func (dg *DynamicGraph) HasEdge(u, v int32) bool { return dg.d.HasEdge(u, v) }

// InsertEdge adds {u, v} (no-op if present or a self-loop) and repairs the
// core numbers. Panics on out-of-range ids.
func (dg *DynamicGraph) InsertEdge(u, v int32) { dg.d.InsertEdge(u, v) }

// DeleteEdge removes {u, v} (no-op if absent) and repairs the core numbers.
func (dg *DynamicGraph) DeleteEdge(u, v int32) { dg.d.DeleteEdge(u, v) }

// ApplyInsert is InsertEdge reporting the structural outcome and the repair
// size: whether the edge was actually added and how many vertices had their
// core number changed by the repair.
func (dg *DynamicGraph) ApplyInsert(u, v int32) (applied bool, changed int) {
	return dg.d.InsertEdge(u, v)
}

// ApplyDelete is DeleteEdge reporting the structural outcome and the repair
// size.
func (dg *DynamicGraph) ApplyDelete(u, v int32) (applied bool, changed int) {
	return dg.d.DeleteEdge(u, v)
}

// CoreNumbers returns the maintained core numbers (read-only view).
func (dg *DynamicGraph) CoreNumbers() []int32 { return dg.d.CoreNumbers() }

// DensestSubgraph returns the current k*-core — the standing 2-approximate
// densest subgraph — with its density. The answer is read directly from the
// maintained state in O(volume of the core); the graph is not materialized.
func (dg *DynamicGraph) DensestSubgraph() Result {
	k, vs, density := dg.d.KStarDensity()
	return Result{
		Algorithm: "DynamicKStarCore",
		Vertices:  vs,
		Density:   density,
		KStar:     k,
	}
}

// Snapshot materializes the current graph as an immutable Graph.
func (dg *DynamicGraph) Snapshot() *Graph {
	return &Graph{g: dg.d.Graph()}
}
