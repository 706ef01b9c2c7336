// Quickstart: build small graphs by hand and solve both densest-subgraph
// problems with the library defaults (PKMC for undirected, PWC for
// directed) — the two graphs are the paper's Fig. 1 examples.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	// Fig. 1(a): an undirected graph whose densest subgraph is a 4-vertex,
	// 5-edge near-clique (density 5/4).
	g := dsd.NewGraph(7, []dsd.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 1, V: 3},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 6},
	})
	res, err := dsd.SolveUDS(g, dsd.AlgoPKMC, dsd.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("undirected: n=%d m=%d\n", g.N(), g.M())
	fmt.Printf("  PKMC found |S|=%d, density %.3f (k* = %d)\n", len(res.Vertices), res.Density, res.KStar)
	fmt.Printf("  S = %v\n", res.Vertices)

	// The exact solver confirms the 2-approximation bound:
	exact, err := dsd.SolveUDS(g, dsd.AlgoExactPruned, dsd.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  exact optimum: density %.3f (2-approx bound holds: %.3f >= %.3f/2)\n\n",
		exact.Density, res.Density, exact.Density)

	// Fig. 1(b): a digraph where S = {4, 5}, T = {2, 3} form a complete
	// block of four arcs — ρ(S, T) = 4/√4 = 2.
	d := dsd.NewDigraph(6, []dsd.Edge{
		{U: 4, V: 2}, {U: 4, V: 3}, {U: 5, V: 2}, {U: 5, V: 3}, {U: 0, V: 1},
	})
	dres, err := dsd.SolveDDS(d, dsd.AlgoPWC, dsd.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("directed: n=%d m=%d\n", d.N(), d.M())
	fmt.Printf("  PWC found |S|=%d |T|=%d, density %.3f ([x*, y*] = [%d, %d])\n",
		len(dres.S), len(dres.T), dres.Density, dres.XStar, dres.YStar)
	fmt.Printf("  S = %v, T = %v\n", dres.S, dres.T)
}
