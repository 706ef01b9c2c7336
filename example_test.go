package dsd_test

import (
	"fmt"

	"repro"
)

// The densest subgraph of a triangle with a pendant vertex is the triangle
// itself: 3 edges over 3 vertices.
func ExampleSolveUDS() {
	g := dsd.NewGraph(4, []dsd.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 0, V: 3},
	})
	res, _ := dsd.SolveUDS(g, dsd.AlgoPKMC, dsd.Options{Workers: 1})
	fmt.Printf("density %.1f, S = %v\n", res.Density, res.Vertices)
	// Output: density 1.0, S = [0 1 2]
}

// A complete 2x2 block S -> T has ρ(S, T) = 4/sqrt(4) = 2.
func ExampleSolveDDS() {
	d := dsd.NewDigraph(4, []dsd.Edge{
		{U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 1, V: 3},
	})
	res, _ := dsd.SolveDDS(d, dsd.AlgoPWC, dsd.Options{Workers: 1})
	fmt.Printf("density %.1f, |S|=%d |T|=%d, [x*, y*] = [%d, %d]\n",
		res.Density, len(res.S), len(res.T), res.XStar, res.YStar)
	// Output: density 2.0, |S|=2 |T|=2, [x*, y*] = [2, 2]
}

// Core numbers grade how deeply each vertex is embedded: the triangle is
// the 2-core, the pendant has core number 1.
func ExampleCoreNumbers() {
	g := dsd.NewGraph(4, []dsd.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 0, V: 3},
	})
	fmt.Println(dsd.CoreNumbers(g, 1))
	// Output: [2 2 2 1]
}

// The [x, y]-core keeps only vertices meeting both directed degree bounds.
func ExampleXYCore() {
	d := dsd.NewDigraph(5, []dsd.Edge{
		{U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 4, V: 2},
	})
	s, t := dsd.XYCore(d, 2, 2)
	fmt.Printf("S = %v, T = %v\n", s, t)
	// Output: S = [0 1], T = [2 3]
}

// The dynamic graph keeps the densest subgraph current while edges come
// and go.
func ExampleDynamicGraph() {
	dg := dsd.NewDynamicGraph(dsd.NewGraph(4, nil))
	dg.InsertEdge(0, 1)
	dg.InsertEdge(1, 2)
	dg.InsertEdge(2, 0)
	fmt.Println(dg.DensestSubgraph().KStar)
	dg.DeleteEdge(2, 0)
	fmt.Println(dg.DensestSubgraph().KStar)
	// Output:
	// 2
	// 1
}

// The skyline summarizes every maximal [x, y]-core of a digraph.
func ExampleCNPairSkyline() {
	d := dsd.NewDigraph(4, []dsd.Edge{
		{U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 1, V: 3},
	})
	fmt.Println(dsd.CNPairSkyline(d, 1))
	// Output: [[2 2]]
}
