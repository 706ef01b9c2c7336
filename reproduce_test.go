package dsd_test

import (
	"testing"
	"time"

	"repro"
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
