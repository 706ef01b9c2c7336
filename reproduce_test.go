package dsd_test

import (
	"maps"
	"slices"
	"testing"
	"time"

	"repro"
	"repro/internal/gen"
)

// These integration tests assert the paper's headline experimental claims
// end-to-end through the public API on small dataset models — the
// qualitative "shapes" EXPERIMENTS.md documents. They complement the
// per-package unit tests: a regression anywhere in the pipeline
// (generators, solvers, harness glue) that flips a paper-level conclusion
// fails here.

func buildUDSModel(t *testing.T, abbr string) *dsd.Graph {
	t.Helper()
	g, _, err := dsd.BuildDataset(abbr, 0.03)
	if err != nil || g == nil {
		t.Fatalf("building %s: %v", abbr, err)
	}
	return g
}

func buildDDSModel(t *testing.T, abbr string) *dsd.Digraph {
	t.Helper()
	_, d, err := dsd.BuildDataset(abbr, 0.03)
	if err != nil || d == nil {
		t.Fatalf("building %s: %v", abbr, err)
	}
	return d
}

// Claim (Exp-1/Exp-2): PKMC needs far fewer iterations than Local and PKC
// and returns the identical k*-core.
func TestClaimPKMCIterationAdvantage(t *testing.T) {
	for _, abbr := range []string{"EW", "SK"} {
		g := buildUDSModel(t, abbr)
		pkmc, _ := dsd.SolveUDS(g, dsd.AlgoPKMC, dsd.Options{})
		local, _ := dsd.SolveUDS(g, dsd.AlgoLocal, dsd.Options{})
		pkc, _ := dsd.SolveUDS(g, dsd.AlgoPKC, dsd.Options{})
		if pkmc.KStar != local.KStar || pkmc.Density != local.Density {
			t.Fatalf("%s: PKMC answer differs from Local", abbr)
		}
		if pkmc.Iterations*2 > local.Iterations {
			t.Fatalf("%s: PKMC %d iterations vs Local %d — advantage lost", abbr, pkmc.Iterations, local.Iterations)
		}
		if local.Iterations >= pkc.Iterations {
			t.Fatalf("%s: Local %d vs PKC %d — Table 6 ordering broken", abbr, local.Iterations, pkc.Iterations)
		}
	}
}

// Claim (Lemma 1): the k*-core is a 2-approximation; verified against the
// pruned exact solver on a model small enough to solve exactly.
func TestClaimTwoApproximation(t *testing.T) {
	g := buildUDSModel(t, "PT")
	exact, err := dsd.SolveUDS(g, dsd.AlgoExactPruned, dsd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pkmc, _ := dsd.SolveUDS(g, dsd.AlgoPKMC, dsd.Options{})
	if pkmc.Density*2 < exact.Density-1e-9 {
		t.Fatalf("2-approximation violated: PKMC %v vs exact %v", pkmc.Density, exact.Density)
	}
	if pkmc.Density > exact.Density+1e-9 {
		t.Fatalf("PKMC %v exceeds the optimum %v", pkmc.Density, exact.Density)
	}
}

// Claim (Exp-5): PWC and PXY return the same maximum cn-pair product (they
// are the same 2-approximation), and PBS cannot finish under a budget.
func TestClaimPWCMatchesPXYAndPBSTimesOut(t *testing.T) {
	d := buildDDSModel(t, "BA")
	pwc, _ := dsd.SolveDDS(d, dsd.AlgoPWC, dsd.Options{})
	pxy, _ := dsd.SolveDDS(d, dsd.AlgoPXY, dsd.Options{})
	if int64(pwc.XStar)*int64(pwc.YStar) != int64(pxy.XStar)*int64(pxy.YStar) {
		t.Fatalf("PWC %d·%d != PXY %d·%d", pwc.XStar, pwc.YStar, pxy.XStar, pxy.YStar)
	}
	if pwc.Density != pxy.Density {
		t.Fatalf("PWC density %v != PXY %v", pwc.Density, pxy.Density)
	}
	pbs, _ := dsd.SolveDDS(d, dsd.AlgoPBS, dsd.Options{Budget: 50 * time.Millisecond})
	if !pbs.TimedOut {
		t.Fatal("PBS finished its O(n²) sweep inside 50ms — model too small or budget ignored")
	}
}

// Claim (Theorem 2 via the public API): the maximum skyline product equals
// w*, and the w*-subgraph contains PWC's answer.
func TestClaimTheorem2(t *testing.T) {
	d := buildDDSModel(t, "AM")
	w, vs := dsd.WStar(d, 0)
	sky := dsd.CNPairSkyline(d, 0)
	var best int64
	for _, pr := range sky {
		if p := int64(pr[0]) * int64(pr[1]); p > best {
			best = p
		}
	}
	if best != w {
		t.Fatalf("skyline max product %d != w* %d", best, w)
	}
	pwc, _ := dsd.SolveDDS(d, dsd.AlgoPWC, dsd.Options{})
	if int64(pwc.XStar)*int64(pwc.YStar) != w {
		t.Fatalf("PWC product %d != w* %d", int64(pwc.XStar)*int64(pwc.YStar), w)
	}
	in := map[int32]bool{}
	for _, v := range vs {
		in[v] = true
	}
	for _, v := range append(pwc.S, pwc.T...) {
		if !in[v] {
			t.Fatalf("core vertex %d outside the w*-subgraph", v)
		}
	}
}

// Claim (Exp-6/Table 7): the warm-started decomposition processes a tiny
// fraction of the input arcs.
func TestClaimGraphSizeCollapse(t *testing.T) {
	d := buildDDSModel(t, "AM")
	_, vs := dsd.WStar(d, 0)
	if int64(len(vs))*4 > int64(d.N()) {
		t.Fatalf("w*-subgraph has %d of %d vertices — no collapse", len(vs), d.N())
	}
}

// TestWorkCounters pins the exact work the paper's solvers do on fixed
// inputs at Workers=1: Table 6's iteration counts, Table 7's arc counts
// and exact-pruned's flow calls. Work counters do not depend on the
// machine, so the pins need no slack, baseline file or thresholds. A
// change that moves one is either a regression or a deliberate change of
// algorithm, and the latter must be explained in CHANGES.md.
//
// The inputs come only from generators that draw integers (rng.Intn,
// rng.Perm). The catalog models draw through math.Pow and float
// comparisons, which an architecture that fuses multiply-adds may round
// differently, and a pin must not depend on GOARCH.
func TestWorkCounters(t *testing.T) {
	u1 := gen.Composite(gen.BarabasiAlbert(20000, 6, 1), 40, 20, 60, 2)
	u2 := gen.BarabasiAlbert(20000, 6, 1)
	udsInputs := map[string]*dsd.Graph{
		"U1": dsd.NewGraph(u1.N(), u1.Edges()),
		"U2": dsd.NewGraph(u2.N(), u2.Edges()),
	}
	d1 := gen.CompositeDirected(gen.ErdosRenyiDirected(20000, 120000, 3), 30, 50, 4)
	d2 := gen.CompositeDirected(gen.ErdosRenyiDirected(5000, 60000, 3), 8, 12, 4)
	ddsInputs := map[string]*dsd.Digraph{
		"D1": dsd.NewDigraph(d1.N(), d1.Arcs()),
		"D2": dsd.NewDigraph(d2.N(), d2.Arcs()),
	}
	pins := []struct {
		input string
		algo  dsd.Algo
		want  map[string]int64
	}{
		{"U1", dsd.AlgoPKMC, map[string]int64{"iterations": 2, "peak_candidates": 40, "k_star": 39, "vertices": 40}},
		{"U1", dsd.AlgoPKMCSync, map[string]int64{"iterations": 3, "peak_candidates": 40, "k_star": 39, "vertices": 40}},
		{"U1", dsd.AlgoLocal, map[string]int64{"iterations": 60}},
		{"U1", dsd.AlgoPKC, map[string]int64{"iterations": 40}},
		{"U1", dsd.AlgoPBU, map[string]int64{"iterations": 4}},
		{"U1", dsd.AlgoExactPruned, map[string]int64{"flow_probes": 2, "flow_vertices": 40, "pruned_vertices": 21160}},
		{"U2", dsd.AlgoPKMC, map[string]int64{"iterations": 36, "peak_candidates": 19992, "k_star": 6, "vertices": 19992}},
		{"U2", dsd.AlgoPKMCSync, map[string]int64{"iterations": 38, "peak_candidates": 19992, "k_star": 6, "vertices": 19992}},
		{"U2", dsd.AlgoLocal, map[string]int64{"iterations": 38}},
		{"U2", dsd.AlgoPKC, map[string]int64{"iterations": 7}},
		{"D1", dsd.AlgoPWC, map[string]int64{"levels": 4, "arcs_after_warm_start": 1514, "arcs_at_wstar": 1500,
			"arcs_densest": 1500, "wstar": 1500, "x_star": 50, "y_star": 30, "arcs_scanned": 137083}},
		{"D2", dsd.AlgoPWC, map[string]int64{"levels": 14, "arcs_after_warm_start": 59961, "arcs_at_wstar": 96,
			"arcs_densest": 96, "wstar": 96, "x_star": 12, "y_star": 8, "arcs_scanned": 1665069}},
	}
	for _, pin := range pins {
		tr := &dsd.Trace{}
		opts := dsd.Options{Workers: 1, Trace: tr}
		got := map[string]int64{}
		if g, ok := udsInputs[pin.input]; ok {
			r, err := dsd.SolveUDS(g, pin.algo, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", pin.input, pin.algo, err)
			}
			got["iterations"] = int64(r.Iterations)
			got["k_star"] = int64(r.KStar)
			got["vertices"] = int64(len(r.Vertices))
		} else {
			r, err := dsd.SolveDDS(ddsInputs[pin.input], pin.algo, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", pin.input, pin.algo, err)
			}
			got["iterations"] = int64(r.Iterations)
			got["x_star"] = int64(r.XStar)
			got["y_star"] = int64(r.YStar)
		}
		got["peak_candidates"] = tr.PeakCandidates
		maps.Copy(got, tr.Counters)
		maps.Copy(got, tr.Work)
		names := make([]string, 0, len(pin.want))
		for name := range pin.want {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			if got[name] != pin.want[name] {
				t.Errorf("%s/%s: counter %s = %d, pinned %d; explain a changed work counter in CHANGES.md and re-pin it here",
					pin.input, pin.algo, name, got[name], pin.want[name])
			}
		}
	}
}
