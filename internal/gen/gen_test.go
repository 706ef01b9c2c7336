package gen

import (
	"testing"

	"repro/internal/graph"
)

func TestErdosRenyiSize(t *testing.T) {
	g := ErdosRenyi(1000, 5000, 1)
	if g.N() != 1000 {
		t.Fatalf("n = %d", g.N())
	}
	// Duplicates/loops drop a few edges but most survive.
	if g.M() < 4500 || g.M() > 5000 {
		t.Fatalf("m = %d, want ~5000", g.M())
	}
}

func TestErdosRenyiDeterministic(t *testing.T) {
	a := ErdosRenyi(500, 2000, 7)
	b := ErdosRenyi(500, 2000, 7)
	if a.M() != b.M() {
		t.Fatal("same seed, different graphs")
	}
	c := ErdosRenyi(500, 2000, 8)
	if a.M() == c.M() && sameDegrees(a, c) {
		t.Fatal("different seeds produced identical graphs")
	}
}

func sameDegrees(a, b *graph.Undirected) bool {
	for v := int32(0); int(v) < a.N(); v++ {
		if a.Degree(v) != b.Degree(v) {
			return false
		}
	}
	return true
}

func TestChungLuHeavyTail(t *testing.T) {
	g := ChungLu(5000, 50000, 2.1, 3)
	if g.N() != 5000 {
		t.Fatalf("n = %d", g.N())
	}
	avg := 2 * float64(g.M()) / float64(g.N())
	if float64(g.MaxDegree()) < 5*avg {
		t.Fatalf("max degree %d not heavy-tailed vs avg %.1f", g.MaxDegree(), avg)
	}
}

func TestChungLuDirectedAsymmetry(t *testing.T) {
	// betaOut=9 (near-uniform out) vs betaIn=2.1 (hubby in): the Amazon
	// shape, d+max << d-max.
	d := ChungLuDirected(5000, 40000, 9.0, 2.1, 4)
	if d.MaxInDegree() < 4*d.MaxOutDegree() {
		t.Fatalf("expected in-hub asymmetry: d+max=%d d-max=%d", d.MaxOutDegree(), d.MaxInDegree())
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g := BarabasiAlbert(2000, 3, 5)
	if g.N() != 2000 {
		t.Fatalf("n = %d", g.N())
	}
	// Each arriving vertex adds up to k edges (duplicates collapse).
	if g.M() > 3*2000 || g.M() < 2000 {
		t.Fatalf("m = %d", g.M())
	}
	avg := 2 * float64(g.M()) / float64(g.N())
	if float64(g.MaxDegree()) < 5*avg {
		t.Fatalf("BA graph lacks hubs: max=%d avg=%.1f", g.MaxDegree(), avg)
	}
}

func TestBarabasiAlbertTiny(t *testing.T) {
	if g := BarabasiAlbert(1, 3, 1); g.N() != 1 || g.M() != 0 {
		t.Fatal("single-vertex BA broken")
	}
	if g := BarabasiAlbert(2, 3, 1); g.M() != 1 {
		t.Fatalf("two-vertex BA: m = %d, want 1", g.M())
	}
}

func TestRMATShapes(t *testing.T) {
	g := RMATUndirected(12, 40000, 0.57, 0.19, 0.19, 6)
	if g.N() != 4096 {
		t.Fatalf("n = %d, want 4096", g.N())
	}
	avg := 2 * float64(g.M()) / float64(g.N())
	if float64(g.MaxDegree()) < 5*avg {
		t.Fatalf("RMAT lacks skew: max=%d avg=%.1f", g.MaxDegree(), avg)
	}
	d := RMATDirected(10, 8000, 0.57, 0.19, 0.19, 7)
	if d.N() != 1024 {
		t.Fatalf("directed n = %d", d.N())
	}
}

func TestPlantCliqueIsPresent(t *testing.T) {
	base := ErdosRenyi(500, 1000, 8)
	g, planted := PlantClique(base, 20, 9)
	if len(planted) != 20 {
		t.Fatalf("planted %d vertices", len(planted))
	}
	for i, u := range planted {
		for _, v := range planted[i+1:] {
			if !g.HasEdge(u, v) {
				t.Fatalf("planted clique missing edge %d-%d", u, v)
			}
		}
	}
	// Density of the planted set is (k-1)/2 = 9.5.
	if d := g.InducedDensity(planted); d < 9.4 {
		t.Fatalf("planted density = %v", d)
	}
}

func TestPlantCliqueOversizedClamps(t *testing.T) {
	base := ErdosRenyi(10, 20, 1)
	_, planted := PlantClique(base, 50, 2)
	if len(planted) != 10 {
		t.Fatalf("clamped size = %d, want 10", len(planted))
	}
}

func TestPlantBiclique(t *testing.T) {
	base := ErdosRenyiDirected(300, 600, 10)
	d, s, tt := PlantBiclique(base, 8, 12, 11)
	if len(s) != 8 || len(tt) != 12 {
		t.Fatalf("planted sizes %d, %d", len(s), len(tt))
	}
	for _, u := range s {
		for _, v := range tt {
			if !d.HasArc(u, v) {
				t.Fatalf("planted biclique missing arc %d->%d", u, v)
			}
		}
	}
	// ρ(S,T) for the complete block is sqrt(8*12) ≈ 9.8 at minimum.
	if got := d.DensityST(s, tt); got < 9.7 {
		t.Fatalf("planted density = %v", got)
	}
}

func TestErdosRenyiDirected(t *testing.T) {
	d := ErdosRenyiDirected(400, 2000, 12)
	if d.N() != 400 || d.M() < 1800 {
		t.Fatalf("n=%d m=%d", d.N(), d.M())
	}
}

func TestCompositeStructure(t *testing.T) {
	base := ChungLu(2000, 10000, 2.2, 13)
	g := Composite(base, 50, 3, 40, 14)
	if g.N() != 2000+3*40 {
		t.Fatalf("n = %d, want %d", g.N(), 2000+120)
	}
	// Chain vertices have degree <= 2 by construction.
	for v := 2000; v < g.N(); v++ {
		if d := g.Degree(int32(v)); d < 1 || d > 2 {
			t.Fatalf("chain vertex %d has degree %d", v, d)
		}
	}
}

func TestCompositeDirectedBiclique(t *testing.T) {
	base := ErdosRenyiDirected(1000, 3000, 15)
	d := CompositeDirected(base, 10, 15, 16)
	if d.N() != 1000 {
		t.Fatalf("n = %d", d.N())
	}
	if d.M() < base.M() {
		t.Fatal("biclique arcs missing")
	}
}

func TestPowerLawExponentRecoversBeta(t *testing.T) {
	for _, beta := range []float64{2.1, 2.5, 3.0} {
		g := ChungLu(30000, 300000, beta, 22)
		got := PowerLawExponent(g, 20)
		if got < beta-0.5 || got > beta+0.5 {
			t.Fatalf("beta=%v: estimated %v", beta, got)
		}
	}
}

func TestPowerLawExponentDegenerate(t *testing.T) {
	if got := PowerLawExponent(ErdosRenyi(20, 10, 23), 50); got != 0 {
		t.Fatalf("sparse graph estimate = %v, want 0", got)
	}
}
