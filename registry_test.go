package dsd_test

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/dds"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/solver"
	"repro/internal/uds"
)

// traceKinds names the record kinds a traced solve emitted, in the
// vocabulary of Descriptor.TraceColumns. The solve-wide "total" phase that
// SolveUDS/SolveDDS add around every traced solve does not count.
func traceKinds(tr *dsd.Trace) []string {
	var kinds []string
	if slices.ContainsFunc(tr.Phases, func(p dsd.TracePhase) bool { return p.Name != "total" }) {
		kinds = append(kinds, "phases")
	}
	if len(tr.Iterations) > 0 {
		kinds = append(kinds, "iterations")
	}
	if len(tr.Convergences) > 0 {
		kinds = append(kinds, "convergence")
	}
	if len(tr.Counters) > 0 {
		kinds = append(kinds, "counters")
	}
	if len(tr.Work) > 0 {
		kinds = append(kinds, "work")
	}
	slices.Sort(kinds)
	return kinds
}

// TestTraceColumnsMatchEmitted holds every registered solver to its
// declared TraceColumns: a traced solve emits exactly those record kinds.
// The inputs make every optional record fire (FISTA's duality-gap early
// stop needs a clear optimum).
func TestTraceColumnsMatchEmitted(t *testing.T) {
	ug, _ := gen.PlantClique(gen.ErdosRenyi(50, 120, 5), 9, 6)
	g := dsd.NewGraph(ug.N(), ug.Edges())
	dg, _, _ := gen.PlantBiclique(gen.ErdosRenyiDirected(12, 30, 7), 3, 4, 8)
	d := dsd.NewDigraph(dg.N(), dg.Arcs())
	for _, info := range dsd.Algorithms("") {
		tr := &dsd.Trace{}
		var err error
		if info.Problem == dsd.ProblemUDS {
			_, err = dsd.SolveUDS(g, info.Name, dsd.Options{Workers: 2, Trace: tr})
		} else {
			_, err = dsd.SolveDDS(d, info.Name, dsd.Options{Workers: 2, Trace: tr})
		}
		if err != nil {
			t.Fatalf("%s/%s: %v", info.Problem, info.Name, err)
		}
		want := slices.Clone(info.TraceColumns)
		slices.Sort(want)
		if got := traceKinds(tr); !slices.Equal(got, want) {
			t.Errorf("%s/%s: trace emits %v, descriptor declares %v", info.Problem, info.Name, got, want)
		}
	}
}

// TestRegistryAnswers checks every registered solver on small generated
// graphs: the reported density is the density of the returned set, the
// answer's density does not depend on the worker count, and the answer
// keeps the solver's grade against the family's exact oracle. A solver
// marked KStarCore must return BZ's k*-core exactly (k* and vertex set,
// under its display name), since the server serves the maintained k*-core
// as its answer on live graphs. Registering a solver is enough to put it
// under this check.
//
// PWC is held to PXY by the product x*·y*, not by density: when products
// tie, the two pick different [x, y] pairs, and both are valid.
func TestRegistryAnswers(t *testing.T) {
	clique, _ := gen.PlantClique(gen.ErdosRenyi(50, 120, 11), 9, 12)
	udsGraphs := map[string]*graph.Undirected{
		"er":      gen.ErdosRenyi(40, 120, 13),
		"chunglu": gen.ChungLu(60, 240, 2.3, 14),
		"clique":  clique,
	}
	biclique, _, _ := gen.PlantBiclique(gen.ErdosRenyiDirected(24, 70, 15), 4, 5, 16)
	ddsGraphs := map[string]*graph.Directed{
		"er":       gen.ErdosRenyiDirected(12, 40, 17),
		"chunglu":  gen.ChungLuDirected(24, 90, 2.2, 2.4, 18),
		"biclique": biclique,
	}
	params := func(d solver.Descriptor, workers int) solver.Params {
		p := solver.Params{Workers: workers}
		if d.Budgeted {
			p.Budget = time.Minute
		}
		return p
	}
	// checkGrade holds a p=1 density to the grade it declares against the
	// exact optimum.
	checkGrade := func(desc solver.Descriptor, name string, density, exact float64) {
		if desc.Grade == solver.GradeExact && math.Abs(density-exact) > 1e-9 {
			t.Errorf("%s/%s on %s: exact-grade density %v, exact oracle %v", desc.Kind, desc.Name, name, density, exact)
		}
	}
	udsOpt := map[string]float64{}
	type kStarCore struct {
		k  int32
		vs []int32
	}
	bzCore := map[string]kStarCore{}
	for name, g := range udsGraphs {
		k, vs := core.KStarCore(core.BZ(g))
		bzCore[name] = kStarCore{k, vs}
		r, err := uds.Exact(nil, g, solver.Params{})
		if err != nil {
			t.Fatalf("uds/exact on %s: %v", name, err)
		}
		udsOpt[name] = r.Density
	}
	for _, desc := range solver.List(solver.KindUDS) {
		for name, g := range udsGraphs {
			var density [2]float64
			for i, workers := range []int{1, 4} {
				r, err := desc.SolveUDS(nil, g, params(desc, workers))
				if err != nil {
					t.Fatalf("uds/%s on %s: %v", desc.Name, name, err)
				}
				if got := g.InducedDensity(r.Vertices); math.Abs(got-r.Density) > 1e-9 {
					t.Errorf("uds/%s on %s (p=%d): reports density %v, its set has %v", desc.Name, name, workers, r.Density, got)
				}
				vs := slices.Clone(r.Vertices)
				slices.Sort(vs)
				if want := bzCore[name]; desc.KStarCore && (r.Algorithm != desc.Display || r.KStar != want.k || !slices.Equal(vs, want.vs)) {
					t.Errorf("uds/%s on %s (p=%d): marked KStarCore, but returns %s k*=%d |S|=%d, BZ's k*-core is k*=%d |S|=%d",
						desc.Name, name, workers, r.Algorithm, r.KStar, len(r.Vertices), want.k, len(want.vs))
				}
				density[i] = r.Density
			}
			if math.Abs(density[0]-density[1]) > 1e-9 {
				t.Errorf("uds/%s on %s: density %v at p=1, %v at p=4", desc.Name, name, density[0], density[1])
			}
			checkGrade(desc, name, density[0], udsOpt[name])
		}
	}
	pxy, _ := solver.Lookup(solver.KindDDS, "pxy")
	ddsOpt, pxyProduct := map[string]float64{}, map[string]int64{}
	for name, d := range ddsGraphs {
		r, err := dds.Exact(nil, d, solver.Params{})
		if err != nil {
			t.Fatalf("dds/exact on %s: %v", name, err)
		}
		ddsOpt[name] = r.Density
		if r, err = pxy.SolveDDS(nil, d, solver.Params{Workers: 1}); err != nil {
			t.Fatalf("dds/pxy on %s: %v", name, err)
		}
		pxyProduct[name] = int64(r.XStar) * int64(r.YStar)
	}
	for _, desc := range solver.List(solver.KindDDS) {
		for name, d := range ddsGraphs {
			var density [2]float64
			var product int64
			for i, workers := range []int{1, 4} {
				r, err := desc.SolveDDS(nil, d, params(desc, workers))
				if err != nil {
					t.Fatalf("dds/%s on %s: %v", desc.Name, name, err)
				}
				if got := d.DensityST(r.S, r.T); math.Abs(got-r.Density) > 1e-9 {
					t.Errorf("dds/%s on %s (p=%d): reports density %v, its sets have %v", desc.Name, name, workers, r.Density, got)
				}
				density[i] = r.Density
				if workers == 1 {
					product = int64(r.XStar) * int64(r.YStar)
				}
			}
			if math.Abs(density[0]-density[1]) > 1e-9 {
				t.Errorf("dds/%s on %s: density %v at p=1, %v at p=4", desc.Name, name, density[0], density[1])
			}
			checkGrade(desc, name, density[0], ddsOpt[name])
			if desc.Name == "pwc" && product != pxyProduct[name] {
				t.Errorf("dds/pwc on %s: x*·y* = %d, PXY's is %d", name, product, pxyProduct[name])
			}
		}
	}
}
