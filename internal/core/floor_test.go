package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/solver"
	"repro/internal/uds"
)

// TestDensityFloorSound checks the bound PKMC's sweeps rely on: the floor
// F never exceeds ⌈ρ*⌉ (ρ* from the exact solver) or k* (from BZ). The
// tight cases have F = k*, so a floor one too high fails here.
func TestDensityFloorSound(t *testing.T) {
	check := func(name string, g *graph.Undirected, exact bool) {
		t.Helper()
		f := core.DensityFloor(g)
		k := core.KStar(core.BZ(g))
		if f > k {
			t.Errorf("%s: floor %d above k* %d", name, f, k)
		}
		if !exact {
			return
		}
		r, err := uds.Exact(nil, g, solver.Params{})
		if err != nil {
			t.Fatalf("%s: exact: %v", name, err)
		}
		if rho := math.Ceil(r.Density - 1e-9); float64(f) > rho {
			t.Errorf("%s: floor %d above ⌈ρ*⌉ = %v", name, f, rho)
		}
	}
	for seed := int64(1); seed <= 6; seed++ {
		n := 60 + 40*int(seed)
		clique, _ := gen.PlantClique(gen.ErdosRenyi(n, int64(3*n), seed), 6+int(seed), seed+100)
		check("er", gen.ErdosRenyi(n, int64(2*n+int(seed)*n), seed), true)
		check("chunglu", gen.ChungLu(n, int64(4*n), 2.1+0.1*float64(seed), seed), true)
		check("clique", clique, true)
	}

	path := func(n int32) []graph.Edge {
		var es []graph.Edge
		for v := int32(1); v < n; v++ {
			es = append(es, graph.Edge{U: v - 1, V: v})
		}
		return es
	}
	tight := map[string]*graph.Undirected{
		"edge":     graph.NewUndirected(2, []graph.Edge{{U: 0, V: 1}}),
		"matching": graph.NewUndirected(8, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}, {U: 4, V: 5}, {U: 6, V: 7}}),
		"path":     graph.NewUndirected(9, path(9)),
		"star":     graph.NewUndirected(7, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}, {U: 0, V: 5}, {U: 0, V: 6}}),
	}
	for name, g := range tight {
		if f, k := core.DensityFloor(g), core.KStar(core.BZ(g)); f != k {
			t.Errorf("%s: floor %d, want k* = %d", name, f, k)
		}
		check(name, g, true)
	}

	for _, d := range gen.UndirectedCatalog() {
		check(d.Abbr, d.BuildUndirected(0.05).SampleEdges(0.95, 1), false)
	}
}
