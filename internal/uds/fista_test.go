package uds

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/cancel"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/solver"
	"repro/internal/trace"
)

func TestFISTAMatchesExactOnSmallGraphs(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		g := randomGraph(seed, 12, 3)
		ex := must(Exact(nil, g, solver.Params{}))
		got := must(FISTA(nil, g, solver.Params{Iterations: 400, Epsilon: 1e-6, Workers: 2}))
		if got.Density < ex.Density-1e-6 {
			t.Fatalf("seed %d: FISTA density %.6f < exact %.6f", seed, got.Density, ex.Density)
		}
	}
}

func TestFISTARecoversPlantedClique(t *testing.T) {
	base := gen.ErdosRenyi(300, 600, 5)
	g, _ := gen.PlantClique(base, 12, 6)
	ex := must(Exact(nil, g, solver.Params{}))
	got := must(FISTA(nil, g, solver.Params{Workers: 4}))
	// Default eps certifies a (1+eps) answer; allow exactly that slack.
	if got.Density < ex.Density/(1+DefaultFISTAEpsilon)-1e-9 {
		t.Fatalf("FISTA density %.6f, exact %.6f", got.Density, ex.Density)
	}
	if got.Algorithm != "FISTA" || got.Iterations <= 0 {
		t.Fatalf("bad result metadata: %+v", got)
	}
}

func TestFISTADualityGapMonotoneAndEarlyStop(t *testing.T) {
	base := gen.ErdosRenyi(200, 500, 21)
	g, _ := gen.PlantClique(base, 14, 22)
	tr := &trace.Trace{}
	res, err := FISTA(nil, g, solver.Params{Iterations: 500, Epsilon: 0.05, Workers: 2, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	rows := tr.Convergences
	if len(rows) == 0 {
		t.Fatal("no convergence rows recorded")
	}
	for i, row := range rows {
		if row.Index != i+1 {
			t.Fatalf("row %d has index %d", i, row.Index)
		}
		if row.Dual < row.Primal-1e-9 {
			t.Fatalf("row %d: dual %.6f below primal %.6f", i, row.Dual, row.Primal)
		}
		if math.Abs(row.Gap-(row.Dual-row.Primal)) > 1e-12 {
			t.Fatalf("row %d: gap %.6f != dual-primal", i, row.Gap)
		}
		if i > 0 && row.Gap > rows[i-1].Gap+1e-12 {
			t.Fatalf("gap grew at row %d: %.9f -> %.9f", i, rows[i-1].Gap, row.Gap)
		}
	}
	last := rows[len(rows)-1]
	if last.Gap > 0.05*last.Primal+1e-9 {
		// The early stop never fired, so the budget must have been the
		// reason iteration ended.
		if len(rows) != 500 {
			t.Fatalf("stopped after %d rows with gap %.6f > eps*primal and budget unspent", len(rows), last.Gap)
		}
	} else if len(rows) < 500 {
		// Early stop fired: the counter must say so, and iteration must
		// have ended on the first satisfying row.
		if tr.Counters["fista_early_stop"] != 1 {
			t.Fatalf("early stop fired but counter = %v", tr.Counters)
		}
		for _, row := range rows[:len(rows)-1] {
			if row.Gap <= 0.05*row.Primal {
				t.Fatalf("row %d already satisfied the stop but iteration continued", row.Index)
			}
		}
	}
	if res.Iterations != len(rows) {
		t.Fatalf("result iterations %d != rows %d", res.Iterations, len(rows))
	}
}

func TestFISTACancellation(t *testing.T) {
	g := gen.ChungLu(2000, 20000, 2.3, 23)
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	_, err := FISTA(ctx, g, solver.Params{Iterations: 100, Epsilon: 1e-9, Workers: 2})
	if !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("err = %v, want cancel.ErrCanceled", err)
	}
}

func TestFISTATrivialGraphs(t *testing.T) {
	empty := graph.NewUndirected(0, nil)
	if res := must(FISTA(nil, empty, solver.Params{Iterations: 10, Workers: 1})); res.Vertices != nil || res.Density != 0 {
		t.Fatalf("empty graph: %+v", res)
	}
	edgeless := graph.NewUndirected(5, nil)
	if res := must(FISTA(nil, edgeless, solver.Params{Iterations: 10, Workers: 1})); len(res.Vertices) != 1 || res.Density != 0 {
		t.Fatalf("edgeless graph: %+v", res)
	}
	single := graph.NewUndirected(2, []graph.Edge{{U: 0, V: 1}})
	if res := must(FISTA(nil, single, solver.Params{Iterations: 10, Workers: 1})); res.Density != 0.5 {
		t.Fatalf("single edge: %+v", res)
	}
}

func TestFracPeelAtLeastGreedyPP(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Undirected
	}{}
	base := gen.ErdosRenyi(300, 600, 5)
	planted, _ := gen.PlantClique(base, 12, 6)
	cases = append(cases,
		struct {
			name string
			g    *graph.Undirected
		}{"planted-clique", planted},
		struct {
			name string
			g    *graph.Undirected
		}{"erdos-renyi", gen.ErdosRenyi(400, 1200, 31)},
		struct {
			name string
			g    *graph.Undirected
		}{"chung-lu", gen.ChungLu(1000, 8000, 2.4, 19)},
	)
	for _, tc := range cases {
		gpp := must(GreedyPP(nil, tc.g, solver.Params{Iterations: 10}))
		fp := must(FracPeel(nil, tc.g, solver.Params{Iterations: 200, Workers: 2}))
		if fp.Density < gpp.Density-1e-9 {
			t.Fatalf("%s: FracPeel %.6f < Greedy++ %.6f", tc.name, fp.Density, gpp.Density)
		}
	}
}

func TestFracPeelMatchesExactOnSmallGraphs(t *testing.T) {
	for seed := int64(100); seed < 140; seed++ {
		g := randomGraph(seed, 12, 3)
		ex := must(Exact(nil, g, solver.Params{}))
		got := must(FracPeel(nil, g, solver.Params{Iterations: 400, Workers: 2}))
		if got.Density < ex.Density-1e-6 {
			t.Fatalf("seed %d: FracPeel density %.6f < exact %.6f", seed, got.Density, ex.Density)
		}
	}
}

func TestFracPeelTraceRecordsConvergence(t *testing.T) {
	base := gen.ErdosRenyi(150, 250, 12)
	g, _ := gen.PlantClique(base, 12, 13)
	tr := &trace.Trace{}
	res, err := FracPeel(nil, g, solver.Params{Iterations: 50, Workers: 2, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Convergences) != 50 {
		t.Fatalf("want 50 convergence rows, got %d", len(tr.Convergences))
	}
	for i := 1; i < len(tr.Convergences); i++ {
		if tr.Convergences[i].Gap > tr.Convergences[i-1].Gap+1e-12 {
			t.Fatalf("gap grew at row %d", i)
		}
	}
	if tr.PhaseSeconds("frank-wolfe") <= 0 || tr.PhaseSeconds("fractional-peeling") < 0 {
		t.Fatalf("phases not recorded: %+v", tr.Phases)
	}
	if res.Algorithm != "FracPeel" {
		t.Fatalf("algorithm = %q", res.Algorithm)
	}
}

func TestFracPeelNeverBelowPFWRounding(t *testing.T) {
	// Same iteration count means the same Frank–Wolfe load vector; the
	// peel rounding must dominate the static prefix sweep.
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		g := gen.ErdosRenyi(200, 800, seed)
		pfw := must(PFW(nil, g, solver.Params{Iterations: 60, Workers: 2}))
		fp := must(FracPeel(nil, g, solver.Params{Iterations: 60, Workers: 2}))
		if fp.Density < pfw.Density-1e-9 {
			t.Fatalf("seed %d: FracPeel %.6f < PFW %.6f", seed, fp.Density, pfw.Density)
		}
	}
}

func TestFracPeelCancellation(t *testing.T) {
	g := gen.ChungLu(2000, 20000, 2.3, 23)
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	_, err := FracPeel(ctx, g, solver.Params{Iterations: 100, Workers: 2})
	if !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("err = %v, want cancel.ErrCanceled", err)
	}
}
