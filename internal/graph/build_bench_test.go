package graph_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// buildSink keeps BenchmarkBuild's graphs live.
var buildSink any

// BenchmarkBuild times the CSR builder of both graph kinds on a catalog
// model's edge list, once in CSR order (how every binary file arrives, each
// list already sorted) and once shuffled (how a text file may arrive).
func BenchmarkBuild(b *testing.B) {
	eu, _ := gen.FindDataset("EU")
	g := eu.BuildUndirected(0.25)
	we, _ := gen.FindDataset("WE")
	d := we.BuildDirected(0.25)
	inputs := []struct {
		name  string
		n     int
		edges []graph.Edge
		build func(int, []graph.Edge) any
	}{
		{"undirected/EU-0.25", g.N(), g.Edges(), func(n int, es []graph.Edge) any { return graph.NewUndirected(n, es) }},
		{"directed/WE-0.25", d.N(), d.Arcs(), func(n int, es []graph.Edge) any { return graph.NewDirected(n, es) }},
	}
	for _, in := range inputs {
		shuffled := slices.Clone(in.edges)
		rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		for _, order := range []struct {
			name  string
			edges []graph.Edge
		}{{"csr-order", in.edges}, {"shuffled", shuffled}} {
			b.Run(in.name+"/"+order.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					buildSink = in.build(in.n, order.edges)
				}
				b.ReportMetric(float64(len(order.edges)), "edges")
			})
		}
	}
}
