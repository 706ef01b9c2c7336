package dsd_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro"
)

func fig1a() *dsd.Graph {
	return dsd.NewGraph(7, []dsd.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 1, V: 3},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 6},
	})
}

func fig1b() *dsd.Digraph {
	return dsd.NewDigraph(6, []dsd.Edge{
		{U: 4, V: 2}, {U: 4, V: 3}, {U: 5, V: 2}, {U: 5, V: 3}, {U: 0, V: 1},
	})
}

func TestGraphAccessors(t *testing.T) {
	g := fig1a()
	if g.N() != 7 || g.M() != 8 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if g.Degree(0) != 3 || !g.HasEdge(0, 1) || g.HasEdge(0, 6) {
		t.Fatal("accessors broken")
	}
	if len(g.Neighbors(0)) != 3 {
		t.Fatal("neighbors broken")
	}
	if math.Abs(g.Density()-8.0/7.0) > 1e-12 {
		t.Fatalf("density = %v", g.Density())
	}
	if d := g.SubgraphDensity([]int32{0, 1, 2, 3}); math.Abs(d-1.25) > 1e-12 {
		t.Fatalf("subgraph density = %v", d)
	}
}

func TestDigraphAccessors(t *testing.T) {
	d := fig1b()
	if d.N() != 6 || d.M() != 5 {
		t.Fatalf("n=%d m=%d", d.N(), d.M())
	}
	if d.OutDegree(4) != 2 || d.InDegree(2) != 2 {
		t.Fatal("degrees broken")
	}
	if !d.HasArc(4, 2) || d.HasArc(2, 4) {
		t.Fatal("HasArc broken")
	}
	if len(d.OutNeighbors(4)) != 2 || len(d.InNeighbors(2)) != 2 {
		t.Fatal("neighbor lists broken")
	}
	if got := d.Density([]int32{4, 5}, []int32{2, 3}); math.Abs(got-2.0) > 1e-12 {
		t.Fatalf("ρ(S,T) = %v", got)
	}
}

func TestSolveUDSAllAlgorithms(t *testing.T) {
	g := fig1a()
	exact, err := dsd.SolveUDS(g, dsd.AlgoExact, dsd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact.Density-1.25) > 1e-9 {
		t.Fatalf("exact density = %v", exact.Density)
	}
	for _, algo := range dsd.UDSAlgorithms() {
		res, err := dsd.SolveUDS(g, algo, dsd.Options{Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if res.Density*2 < exact.Density-1e-9 {
			t.Fatalf("%s density %v violates 2-approx vs %v", algo, res.Density, exact.Density)
		}
	}
}

func TestSolveUDSDefaultsToPKMC(t *testing.T) {
	res, err := dsd.SolveUDS(fig1a(), "", dsd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "PKMC" {
		t.Fatalf("default algorithm = %s", res.Algorithm)
	}
}

func TestSolveUDSUnknownAlgo(t *testing.T) {
	if _, err := dsd.SolveUDS(fig1a(), "nope", dsd.Options{}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestSolveDDSAllAlgorithms(t *testing.T) {
	d := fig1b()
	exact, err := dsd.SolveDDS(d, dsd.AlgoExactDDS, dsd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact.Density-2.0) > 1e-9 {
		t.Fatalf("exact density = %v", exact.Density)
	}
	for _, algo := range dsd.DDSAlgorithms() {
		res, err := dsd.SolveDDS(d, algo, dsd.Options{Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		bound := 2.0
		if algo == dsd.AlgoPBD {
			bound = 8.0
		}
		if algo == dsd.AlgoPFKS {
			bound = 3.0
		}
		if res.Density*bound < exact.Density-1e-9 {
			t.Fatalf("%s density %v violates %v-approx vs %v", algo, res.Density, bound, exact.Density)
		}
	}
}

func TestSolveDDSDefaultsToPWC(t *testing.T) {
	res, err := dsd.SolveDDS(fig1b(), "", dsd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "PWC" {
		t.Fatalf("default algorithm = %s", res.Algorithm)
	}
	if res.XStar != 2 || res.YStar != 2 {
		t.Fatalf("[x*, y*] = [%d, %d], want [2, 2]", res.XStar, res.YStar)
	}
}

func TestSolveDDSUnknownAlgo(t *testing.T) {
	if _, err := dsd.SolveDDS(fig1b(), "nope", dsd.Options{}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestCoreAPI(t *testing.T) {
	g := fig1a()
	cores := dsd.CoreNumbers(g, 2)
	want := []int32{2, 2, 2, 2, 1, 1, 1}
	for v, c := range want {
		if cores[v] != c {
			t.Fatalf("core numbers = %v, want %v", cores, want)
		}
	}
	if got := dsd.KCore(g, 2, 2); len(got) != 4 {
		t.Fatalf("2-core = %v", got)
	}
	k, vs := dsd.KStarCore(g, 2)
	if k != 2 || len(vs) != 4 {
		t.Fatalf("k* = %d, |core| = %d", k, len(vs))
	}
}

func TestXYCoreAPI(t *testing.T) {
	d := fig1b()
	s, tt := dsd.XYCore(d, 2, 2)
	if len(s) != 2 || len(tt) != 2 {
		t.Fatalf("[2,2]-core = %v / %v", s, tt)
	}
	if s2, _ := dsd.XYCore(d, 3, 3); s2 != nil {
		t.Fatal("[3,3]-core should be empty")
	}
}

func TestWStarAPI(t *testing.T) {
	d := fig1b()
	w, vs := dsd.WStar(d, 2)
	if w != 4 { // the 2x2 block: every arc weight 2·2 = 4
		t.Fatalf("w* = %d, want 4", w)
	}
	if len(vs) != 4 {
		t.Fatalf("w*-subgraph vertices = %v", vs)
	}
}

func TestGraphIORoundTrip(t *testing.T) {
	g := fig1a()
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := dsd.ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() != g.M() {
		t.Fatal("text round trip lost edges")
	}
	buf.Reset()
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	g3, err := dsd.ReadGraphBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g3.M() != g.M() {
		t.Fatal("binary round trip lost edges")
	}
}

func TestDigraphIORoundTrip(t *testing.T) {
	d := fig1b()
	var buf bytes.Buffer
	if err := d.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := dsd.ReadDigraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.M() != d.M() {
		t.Fatal("text round trip lost arcs")
	}
	buf.Reset()
	if err := d.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	d3, err := dsd.ReadDigraphBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d3.M() != d.M() {
		t.Fatal("binary round trip lost arcs")
	}
}

func TestReadGraphParsesComments(t *testing.T) {
	in := "% header\n0 1\n1 2\n"
	g, err := dsd.ReadGraph(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
}

func TestDatasetsCatalog(t *testing.T) {
	ds := dsd.Datasets()
	if len(ds) != 12 {
		t.Fatalf("catalog size = %d", len(ds))
	}
	if ds[0].Abbr != "PT" || ds[0].Directed {
		t.Fatalf("first dataset = %+v", ds[0])
	}
	if ds[11].Abbr != "TW" || !ds[11].Directed {
		t.Fatalf("last dataset = %+v", ds[11])
	}
}

func TestBuildDataset(t *testing.T) {
	g, d, err := dsd.BuildDataset("PT", 0.01)
	if err != nil || g == nil || d != nil {
		t.Fatalf("PT: g=%v d=%v err=%v", g, d, err)
	}
	g2, d2, err := dsd.BuildDataset("AM", 0.01)
	if err != nil || g2 != nil || d2 == nil {
		t.Fatalf("AM: g=%v d=%v err=%v", g2, d2, err)
	}
	if _, _, err := dsd.BuildDataset("XX", 0.01); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestGenerators(t *testing.T) {
	if g := dsd.GenerateChungLu(1000, 5000, 2.2, 1); g.N() != 1000 || g.M() == 0 {
		t.Fatal("chunglu")
	}
	if g := dsd.GenerateErdosRenyi(500, 2000, 2); g.N() != 500 {
		t.Fatal("er")
	}
	if g := dsd.GenerateRMAT(10, 4000, 0.57, 0.19, 0.19, 3); g.N() != 1024 {
		t.Fatal("rmat")
	}
	if d := dsd.GenerateChungLuDirected(800, 3000, 2.5, 2.2, 4); d.N() != 800 {
		t.Fatal("chunglu directed")
	}
}

func TestPlantedStructures(t *testing.T) {
	base := dsd.GenerateErdosRenyi(200, 400, 5)
	g, planted := dsd.PlantClique(base, 10, 6)
	if len(planted) != 10 {
		t.Fatal("planted clique size")
	}
	if d := g.SubgraphDensity(planted); d < 4.49 {
		t.Fatalf("planted clique density %v", d)
	}
	dbase := dsd.GenerateChungLuDirected(300, 600, 3.0, 3.0, 7)
	dg, s, tt := dsd.PlantBiclique(dbase, 6, 9, 8)
	if got := dg.Density(s, tt); got < math.Sqrt(54)-1e-9 {
		t.Fatalf("planted biclique density %v", got)
	}
}

func TestSampleEdgesAPI(t *testing.T) {
	g := dsd.GenerateErdosRenyi(300, 3000, 9)
	s := g.SampleEdges(0.5, 1)
	if s.N() != g.N() || s.M() >= g.M() || s.M() == 0 {
		t.Fatalf("sample: n=%d m=%d (orig %d)", s.N(), s.M(), g.M())
	}
	d := dsd.GenerateChungLuDirected(300, 2000, 2.5, 2.5, 10)
	sd := d.SampleEdges(0.5, 1)
	if sd.M() >= d.M() || sd.M() == 0 {
		t.Fatal("directed sample")
	}
}

func TestWorkerCountsAgree(t *testing.T) {
	g := dsd.GenerateChungLu(3000, 20000, 2.3, 11)
	r1, _ := dsd.SolveUDS(g, dsd.AlgoPKMC, dsd.Options{Workers: 1})
	r8, _ := dsd.SolveUDS(g, dsd.AlgoPKMC, dsd.Options{Workers: 8})
	if r1.KStar != r8.KStar || math.Abs(r1.Density-r8.Density) > 1e-9 {
		t.Fatalf("worker counts disagree: %v vs %v", r1, r8)
	}
}

func TestDynamicGraphAPI(t *testing.T) {
	g := dsd.NewGraph(4, []dsd.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	dg := dsd.NewDynamicGraph(g)
	if dg.N() != 4 || dg.HasEdge(0, 2) {
		t.Fatal("seeding broken")
	}
	dg.InsertEdge(3, 0)
	dg.InsertEdge(0, 2)
	dg.InsertEdge(1, 3)
	res := dg.DensestSubgraph()
	if res.KStar != 3 || len(res.Vertices) != 4 || res.Density != 1.5 {
		t.Fatalf("after building K4: %+v", res)
	}
	dg.DeleteEdge(0, 1)
	res = dg.DensestSubgraph()
	if res.KStar != 2 {
		t.Fatalf("after breaking K4: k* = %d", res.KStar)
	}
	if snap := dg.Snapshot(); snap.M() != 5 {
		t.Fatalf("snapshot m = %d, want 5", snap.M())
	}
}

func TestInduceNumbersAPI(t *testing.T) {
	d := fig1b()
	arcs, nums := dsd.InduceNumbers(d, 2)
	if len(arcs) != 5 || len(nums) != 5 {
		t.Fatalf("%d arcs, %d nums", len(arcs), len(nums))
	}
	var max int64
	for _, w := range nums {
		if w > max {
			max = w
		}
	}
	if max != 4 { // w* = x*·y* = 2·2
		t.Fatalf("max induce number = %d, want 4", max)
	}
}

func TestCNPairSkylineAPI(t *testing.T) {
	sky := dsd.CNPairSkyline(fig1b(), 2)
	if len(sky) == 0 {
		t.Fatal("empty skyline")
	}
	var best int64
	for _, pr := range sky {
		if p := int64(pr[0]) * int64(pr[1]); p > best {
			best = p
		}
	}
	if best != 4 {
		t.Fatalf("skyline max product = %d, want w* = 4", best)
	}
}

func TestDensityFriendlyDecompositionAPI(t *testing.T) {
	base := dsd.GenerateErdosRenyi(150, 200, 34)
	g, _ := dsd.PlantClique(base, 12, 35)
	tiers := dsd.DensityFriendlyDecomposition(g, 2)
	if len(tiers) < 1 || tiers[0].Density < 5.4 {
		t.Fatalf("tiers: %+v", tiers)
	}
	for i := 1; i < len(tiers); i++ {
		if tiers[i].Density > tiers[i-1].Density+1e-9 {
			t.Fatal("tier densities must be non-increasing")
		}
	}
}

func TestRelabelByDegreeAPI(t *testing.T) {
	g := dsd.GenerateChungLu(2000, 16000, 2.2, 36)
	r, orig := g.RelabelByDegree()
	if r.M() != g.M() || len(orig) != g.N() {
		t.Fatal("relabel changed size")
	}
	a, _ := dsd.SolveUDS(g, dsd.AlgoPKMC, dsd.Options{})
	b, _ := dsd.SolveUDS(r, dsd.AlgoPKMC, dsd.Options{})
	if a.KStar != b.KStar || math.Abs(a.Density-b.Density) > 1e-9 {
		t.Fatalf("relabeling changed the answer: %v vs %v", a, b)
	}
}

func TestOptionsPlumbing(t *testing.T) {
	g := dsd.GenerateChungLu(500, 3000, 2.4, 37)
	// GreedyPP rounds are reported back via Iterations.
	gp, err := dsd.SolveUDS(g, dsd.AlgoGreedyPP, dsd.Options{Iterations: 4})
	if err != nil || gp.Iterations != 4 {
		t.Fatalf("GreedyPP iterations = %d (err %v), want 4", gp.Iterations, err)
	}
	// PFW honors the iteration budget.
	fw, err := dsd.SolveUDS(g, dsd.AlgoPFW, dsd.Options{Iterations: 7})
	if err != nil || fw.Iterations != 7 {
		t.Fatalf("PFW iterations = %d (err %v), want 7", fw.Iterations, err)
	}
	// Exact-eps converges in a handful of probes at coarse epsilon.
	ee, err := dsd.SolveUDS(g, dsd.AlgoExactEps, dsd.Options{Epsilon: 0.5})
	if err != nil || ee.Iterations > 4 || ee.Density <= 0 {
		t.Fatalf("exact-eps: %+v (err %v)", ee, err)
	}
	d := dsd.GenerateChungLuDirected(400, 2000, 2.6, 2.4, 38)
	// PBD accepts custom delta/epsilon.
	pbd, err := dsd.SolveDDS(d, dsd.AlgoPBD, dsd.Options{Delta: 3, Epsilon: 0.5})
	if err != nil || pbd.Density <= 0 {
		t.Fatalf("PBD: %+v (err %v)", pbd, err)
	}
}
