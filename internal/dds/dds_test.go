package dds

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/solver"
	"repro/internal/trace"
)

func randomDigraph(seed int64, maxN, mult int) *graph.Directed {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(maxN)
	var arcs []graph.Edge
	for i := 0; i < rng.Intn(n*mult+1); i++ {
		arcs = append(arcs, graph.Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))})
	}
	return graph.NewDirected(n, arcs)
}

// fig3Graph is the paper's Fig. 3(a): u1,u2 fully linked to v1,v2,v3 plus
// the peripheral arcs whose induce-numbers Table 3 lists.
// Vertices: u1=0, u2=1, u3=2, u4=3, v1=4, v2=5, v3=6, v4=7, v5=8.
func fig3Graph() *graph.Directed {
	return graph.NewDirected(9, []graph.Edge{
		{U: 0, V: 4}, {U: 0, V: 5}, {U: 0, V: 6}, // u1 -> v1 v2 v3
		{U: 1, V: 4}, {U: 1, V: 5}, {U: 1, V: 6}, // u2 -> v1 v2 v3
		{U: 1, V: 7}, {U: 1, V: 8}, // u2 -> v4 v5
		{U: 2, V: 6}, {U: 2, V: 7}, // u3 -> v3 v4
		{U: 3, V: 7}, // u4 -> v4
	})
}

// fig4Graph is the paper's Fig. 4: w* = 12, [x*, y*] = [4, 3].
// u1..u4 = 0..3, v1..v7 = 4..10.
func fig4Graph() *graph.Directed {
	return graph.NewDirected(11, []graph.Edge{
		// u1, u2, u3 each point to v1..v4 (the [4,3]-core block), and u1
		// additionally... construct per the figure: x*=4 means S vertices
		// have out-degree 4; y*=3 means T vertices have in-degree 3.
		{U: 0, V: 4}, {U: 0, V: 5}, {U: 0, V: 6}, {U: 0, V: 7},
		{U: 1, V: 4}, {U: 1, V: 5}, {U: 1, V: 6}, {U: 1, V: 7},
		{U: 2, V: 4}, {U: 2, V: 5}, {U: 2, V: 6}, {U: 2, V: 7},
		// u2, u4 -> v6; u3, u4 -> v7 (the weight-12 arcs outside the core;
		// u4 has out-degree 2, v6/v7 in-degree 2).
		{U: 1, V: 9}, {U: 3, V: 9},
		{U: 2, V: 10}, {U: 3, V: 10},
	})
}

// --- oracles ---

func TestExactMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		d := randomDigraph(seed, 8, 3)
		ex := must(Exact(nil, d, solver.Params{}))
		bf := must(BruteForce(nil, d, solver.Params{}))
		return math.Abs(ex.Density-bf.Density) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBruteForcePaperFig1b(t *testing.T) {
	// Fig. 1(b): S = {v4, v5}, T = {v2, v3}, density 2.
	d := graph.NewDirected(6, []graph.Edge{
		{U: 4, V: 2}, {U: 4, V: 3}, {U: 5, V: 2}, {U: 5, V: 3}, {U: 0, V: 1},
	})
	res := must(BruteForce(nil, d, solver.Params{}))
	if math.Abs(res.Density-2.0) > 1e-9 {
		t.Fatalf("density = %v, want 2.0", res.Density)
	}
}

func TestExactPaperFig1b(t *testing.T) {
	d := graph.NewDirected(6, []graph.Edge{
		{U: 4, V: 2}, {U: 4, V: 3}, {U: 5, V: 2}, {U: 5, V: 3}, {U: 0, V: 1},
	})
	res := must(Exact(nil, d, solver.Params{}))
	if math.Abs(res.Density-2.0) > 1e-9 {
		t.Fatalf("density = %v, want 2.0", res.Density)
	}
}

func TestBruteForceRejectsLarge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	must(BruteForce(nil, graph.NewDirected(14, nil), solver.Params{}))
}

func TestExactEmpty(t *testing.T) {
	if res := must(Exact(nil, graph.NewDirected(0, nil), solver.Params{})); res.Density != 0 {
		t.Fatal("empty digraph")
	}
	if res := must(Exact(nil, graph.NewDirected(4, nil), solver.Params{})); res.Density != 0 {
		t.Fatal("arcless digraph")
	}
}

// --- [x, y]-core primitives ---

func TestXYCoreFig4(t *testing.T) {
	d := fig4Graph()
	s, tt := XYCore(d, 4, 3)
	if !sameSet(s, []int32{0, 1, 2}) {
		t.Fatalf("S = %v, want {0,1,2}", s)
	}
	if !sameSet(tt, []int32{4, 5, 6, 7}) {
		t.Fatalf("T = %v, want {4,5,6,7}", tt)
	}
}

func TestXYCoreEmptyWhenTooDemanding(t *testing.T) {
	d := fig4Graph()
	s, tt := XYCore(d, 10, 10)
	if s != nil || tt != nil {
		t.Fatalf("impossible core nonempty: %v %v", s, tt)
	}
}

func TestXYCoreInvalidParams(t *testing.T) {
	d := fig4Graph()
	if s, _ := XYCore(d, 0, 1); s != nil {
		t.Fatal("x=0 must return empty")
	}
}

func TestXYCoreIsMaximalAndValid(t *testing.T) {
	f := func(seed int64) bool {
		d := randomDigraph(seed, 30, 4)
		x := int32(1 + seed%3)
		y := int32(1 + (seed/3)%3)
		s, tt := XYCore(d, x, y)
		if len(s) == 0 && len(tt) == 0 {
			return true
		}
		inT := map[int32]bool{}
		for _, v := range tt {
			inT[v] = true
		}
		inS := map[int32]bool{}
		for _, u := range s {
			inS[u] = true
		}
		// Validity: degree constraints within the induced (S, T) subgraph.
		for _, u := range s {
			var cnt int32
			for _, v := range d.OutNeighbors(u) {
				if inT[v] {
					cnt++
				}
			}
			if cnt < x {
				return false
			}
		}
		for _, v := range tt {
			var cnt int32
			for _, u := range d.InNeighbors(v) {
				if inS[u] {
					cnt++
				}
			}
			if cnt < y {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// naiveYMax computes max y with non-empty [x, y]-core by direct search.
func naiveYMax(d *graph.Directed, x int32) int32 {
	var best int32
	for y := int32(1); ; y++ {
		s, t := XYCore(d, x, y)
		if len(s) == 0 || len(t) == 0 {
			return best
		}
		best = y
	}
}

func TestYMaxAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		d := randomDigraph(seed, 25, 4)
		for x := int32(1); x <= 3; x++ {
			if YMax(d, x) != naiveYMax(d, x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestXMaxIsReverseYMax(t *testing.T) {
	d := fig4Graph()
	if XMax(d, 3) != YMax(d.Reverse(), 3) {
		t.Fatal("XMax must equal YMax on the reverse graph")
	}
}

// --- w-induced decomposition ---

func TestWDecomposeFig3Table3(t *testing.T) {
	d := fig3Graph()
	res := WDecompose(d, 2)
	if res.WStar != 6 {
		t.Fatalf("w* = %d, want 6 (paper's Example 2)", res.WStar)
	}
	// Table 3: induce numbers by arc.
	want := map[[2]int32]int64{
		{3, 7}: 3,            // (u4,v4)
		{2, 6}: 4, {2, 7}: 4, // (u3,v3), (u3,v4)
		{1, 7}: 5, {1, 8}: 5, // (u2,v4), (u2,v5)
		{0, 4}: 6, {0, 5}: 6, {0, 6}: 6,
		{1, 4}: 6, {1, 5}: 6, {1, 6}: 6,
	}
	tails := d.ArcTails()
	for a := int64(0); a < d.M(); a++ {
		key := [2]int32{tails[a], d.ArcHead(a)}
		if res.InduceNumber[a] != want[key] {
			t.Fatalf("induce number of (%d,%d) = %d, want %d",
				key[0], key[1], res.InduceNumber[a], want[key])
		}
	}
}

func TestWStarSubgraphFig3(t *testing.T) {
	d := fig3Graph()
	res := WStarSubgraph(d, 2, true)
	if res.WStar != 6 {
		t.Fatalf("w* = %d, want 6", res.WStar)
	}
	if res.Subgraph.M() != 6 {
		t.Fatalf("w*-subgraph arcs = %d, want 6", res.Subgraph.M())
	}
	// Vertices: u1, u2, v1, v2, v3 (paper's Fig. 3(b)).
	if !sameSet(res.Original, []int32{0, 1, 4, 5, 6}) {
		t.Fatalf("w*-subgraph vertices = %v", res.Original)
	}
}

func TestWStarSubgraphFig4(t *testing.T) {
	d := fig4Graph()
	res := WStarSubgraph(d, 2, true)
	if res.WStar != 12 {
		t.Fatalf("w* = %d, want 12 (paper's Example 3)", res.WStar)
	}
}

func TestWStarMatchesDecomposeMax(t *testing.T) {
	f := func(seed int64) bool {
		d := randomDigraph(seed, 30, 4)
		if d.M() == 0 {
			return true
		}
		a := WDecompose(d, 2).WStar
		b := WStarSubgraph(d, 2, true).WStar
		return a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestTheorem2 machine-checks the paper's central claim on small random
// digraphs, where it holds: w* equals the maximum x·y over all non-empty
// [x, y]-cores. On larger graphs w* can exceed it; see
// TestPWCNonEmptyWhenWStarExceedsProduct.
func TestTheorem2(t *testing.T) {
	f := func(seed int64) bool {
		d := randomDigraph(seed, 25, 4)
		if d.M() == 0 {
			return true
		}
		wstar := WStarSubgraph(d, 2, true).WStar
		best := int64(0)
		for x := int32(1); x <= d.MaxOutDegree(); x++ {
			y := YMax(d, x)
			if int64(x)*int64(y) > best {
				best = int64(x) * int64(y)
			}
		}
		return wstar == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// --- PXY ---

func TestPXYFig4(t *testing.T) {
	res := must(PXY(nil, fig4Graph(), solver.Params{Workers: 2}))
	if int64(res.XStar)*int64(res.YStar) != 12 {
		t.Fatalf("x*·y* = %d·%d, want product 12", res.XStar, res.YStar)
	}
}

func TestPXYTwoApproximation(t *testing.T) {
	f := func(seed int64) bool {
		d := randomDigraph(seed, 9, 3)
		if d.M() == 0 {
			return true
		}
		opt := must(BruteForce(nil, d, solver.Params{})).Density
		res := must(PXY(nil, d, solver.Params{Workers: 2}))
		return res.Density*2 >= opt-1e-9 && res.Density <= opt+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPXYEmpty(t *testing.T) {
	if res := must(PXY(nil, graph.NewDirected(3, nil), solver.Params{Workers: 2})); res.Density != 0 {
		t.Fatal("arcless digraph")
	}
}

// --- PWC ---

func TestPWCFig4(t *testing.T) {
	res := must(PWC(nil, fig4Graph(), solver.Params{Workers: 2}))
	if res.XStar != 4 || res.YStar != 3 {
		t.Fatalf("[x*, y*] = [%d, %d], want [4, 3] (paper's Example 4)", res.XStar, res.YStar)
	}
	if !sameSet(res.S, []int32{0, 1, 2}) || !sameSet(res.T, []int32{4, 5, 6, 7}) {
		t.Fatalf("core = %v / %v", res.S, res.T)
	}
}

func TestPWCMatchesPXYProduct(t *testing.T) {
	f := func(seed int64) bool {
		d := randomDigraph(seed, 30, 4)
		if d.M() == 0 {
			return true
		}
		pwc := must(PWC(nil, d, solver.Params{Workers: 2}))
		pxy := must(PXY(nil, d, solver.Params{Workers: 2}))
		return int64(pwc.XStar)*int64(pwc.YStar) == int64(pxy.XStar)*int64(pxy.YStar)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestPWCTwoApproximation(t *testing.T) {
	f := func(seed int64) bool {
		d := randomDigraph(seed, 9, 3)
		if d.M() == 0 {
			return true
		}
		opt := must(BruteForce(nil, d, solver.Params{})).Density
		res := must(PWC(nil, d, solver.Params{Workers: 2}))
		return res.Density*2 >= opt-1e-9 && res.Density <= opt+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPWCRecoversPlantedBiclique(t *testing.T) {
	base := gen.ErdosRenyiDirected(2000, 8000, 20)
	d, s, tt := gen.PlantBiclique(base, 25, 40, 21)
	res := must(PWC(nil, d, solver.Params{Workers: 4}))
	want := d.DensityST(s, tt)
	if res.Density < want/2 {
		t.Fatalf("PWC density %v below half the planted %v", res.Density, want)
	}
	if int64(res.XStar)*int64(res.YStar) < 25*40 {
		t.Fatalf("x*·y* = %d, want >= 1000", int64(res.XStar)*int64(res.YStar))
	}
}

func TestPWCStats(t *testing.T) {
	base := gen.ErdosRenyiDirected(1000, 5000, 22)
	d, _, _ := gen.PlantBiclique(base, 15, 20, 23)
	res, stats := pwcCounters(d, 2)
	if stats["arcs_input"] != d.M() {
		t.Fatalf("input arcs = %d", stats["arcs_input"])
	}
	if stats["arcs_after_warm_start"] >= stats["arcs_input"] {
		t.Fatal("warm start must shrink the graph")
	}
	if stats["arcs_at_wstar"] > stats["arcs_after_warm_start"] {
		t.Fatal("w*-subgraph cannot exceed the warm-start remainder")
	}
	if stats["arcs_densest"] > stats["arcs_at_wstar"] {
		t.Fatal("densest core cannot exceed the w*-subgraph")
	}
	if res.Density <= 0 {
		t.Fatal("no density found")
	}
}

// catalogSample is one 95% edge sample of a catalog digraph model.
func catalogSample(t *testing.T, abbr string, scale float64, seed int64) *graph.Directed {
	t.Helper()
	ds, ok := gen.FindDataset(abbr)
	if !ok {
		t.Fatalf("no dataset %q", abbr)
	}
	return ds.BuildDirected(scale).SampleEdges(0.95, seed)
}

// must unwraps a solver call with a nil context, which cannot fail.
func must(r solver.DirectedResult, err error) solver.DirectedResult {
	if err != nil {
		panic(err)
	}
	return r
}

// pwcCounters runs PWC with a fresh trace and returns its answer and the
// trace counters that carry the Table-7 statistics.
func pwcCounters(d *graph.Directed, p int) (solver.DirectedResult, map[string]int64) {
	tr := &trace.Trace{}
	res := must(PWC(nil, d, solver.Params{Workers: p, Trace: tr}))
	return res, tr.Counters
}

func sortedCopy(v []int32) []int32 {
	out := slices.Clone(v)
	slices.Sort(out)
	return out
}

// TestPWCParallelConsistent pins the w-peel's ownership rule: the whole
// PWC answer, its Table-7 statistics and every induce-number must not
// depend on the worker count.
func TestPWCParallelConsistent(t *testing.T) {
	// WE sample 9 takes the certified fallback walk; the others do not.
	for _, c := range []struct {
		abbr  string
		scale float64
		seeds []int64
	}{{"AM", 0.05, []int64{1, 2}}, {"DL", 0.01, []int64{1, 2}}, {"WE", 0.01, []int64{1, 9}}} {
		for _, seed := range c.seeds {
			d := catalogSample(t, c.abbr, c.scale, seed)
			a, sa := pwcCounters(d, 1)
			b, sb := pwcCounters(d, 8)
			if !slices.Equal(sortedCopy(a.S), sortedCopy(b.S)) || !slices.Equal(sortedCopy(a.T), sortedCopy(b.T)) ||
				a.Density != b.Density || a.XStar != b.XStar || a.YStar != b.YStar || a.Iterations != b.Iterations {
				t.Errorf("%s/%d: p=1 and p=8 answers differ: [%d, %d] %v vs [%d, %d] %v",
					c.abbr, seed, a.XStar, a.YStar, a.Density, b.XStar, b.YStar, b.Density)
			}
			if !maps.Equal(sa, sb) {
				t.Errorf("%s/%d: stats differ: %+v vs %+v", c.abbr, seed, sa, sb)
			}
			if len(a.S) == 0 {
				t.Errorf("%s/%d: empty answer", c.abbr, seed)
			}
			da, db := WDecompose(d, 1), WDecompose(d, 8)
			if da.WStar != db.WStar || da.Levels != db.Levels || !slices.Equal(da.InduceNumber, db.InduceNumber) {
				t.Errorf("%s/%d: induce-numbers differ between p=1 and p=8", c.abbr, seed)
			}
		}
	}
}

// TestPWCNonEmptyWhenWStarExceedsProduct covers samples on which w* is
// strictly larger than x*·y*, so the w*-induced subgraph holds no core of
// product w*. PWC must still return the [x*, y*]-core with the maximum
// product over all x of x·YMax(d, x).
func TestPWCNonEmptyWhenWStarExceedsProduct(t *testing.T) {
	for _, seed := range []int64{7, 12} {
		d := catalogSample(t, "WE", 0.1, seed)
		res, stats := pwcCounters(d, 2)
		if len(res.S) == 0 || len(res.T) == 0 {
			t.Fatalf("seed %d: empty answer (w* = %d)", seed, stats["wstar"])
		}
		if got := d.DensityST(res.S, res.T); res.Density != got {
			t.Fatalf("seed %d: density %v, but DensityST gives %v", seed, res.Density, got)
		}
		s, tt := XYCore(d, res.XStar, res.YStar)
		if !sameSet(res.S, s) || !sameSet(res.T, tt) {
			t.Fatalf("seed %d: answer is not the [%d, %d]-core of the input", seed, res.XStar, res.YStar)
		}
		// The core is non-empty, so YMax(d, x*) >= y*: the maximum product
		// is at least x*·y*. YMax is non-increasing in x, so x·YMax(d, x')
		// for x' < x bounds x·YMax(d, x), and YMax only has to run where
		// that bound exceeds x*·y*.
		want := int64(res.XStar) * int64(res.YStar)
		if want >= stats["wstar"] {
			t.Fatalf("seed %d: x*·y* = %d is not below w* = %d", seed, want, stats["wstar"])
		}
		yBound := d.MaxInDegree()
		for x := int32(1); x <= d.MaxOutDegree(); x++ {
			if int64(x)*int64(yBound) <= want {
				continue
			}
			yBound = YMax(d, x)
			if prod := int64(x) * int64(yBound); prod > want {
				t.Fatalf("seed %d: [%d, %d]-core has product %d > x*·y* = %d", seed, x, yBound, prod, want)
			}
		}
	}
}

func TestPWCEmpty(t *testing.T) {
	if res := must(PWC(nil, graph.NewDirected(0, nil), solver.Params{Workers: 2})); res.Density != 0 {
		t.Fatal("empty digraph")
	}
}

// --- peeling baselines ---

func TestPBSNearExactOnTinyGraphs(t *testing.T) {
	f := func(seed int64) bool {
		d := randomDigraph(seed, 8, 3)
		if d.M() == 0 {
			return true
		}
		opt := must(BruteForce(nil, d, solver.Params{})).Density
		res := must(PBS(nil, d, solver.Params{Workers: 2}))
		return res.Density*2 >= opt-1e-9 && res.Density <= opt+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPBSTimesOut(t *testing.T) {
	d := gen.ErdosRenyiDirected(3000, 20000, 24)
	res := must(PBS(nil, d, solver.Params{Workers: 2, Budget: 1})) // 1ns budget: immediately out of time
	if !res.TimedOut {
		t.Fatal("PBS must report a timeout under an impossible budget")
	}
}

func TestPFKSWithinLooseBound(t *testing.T) {
	f := func(seed int64) bool {
		d := randomDigraph(seed, 8, 3)
		if d.M() == 0 {
			return true
		}
		opt := must(BruteForce(nil, d, solver.Params{})).Density
		res := must(PFKS(nil, d, solver.Params{Workers: 2}))
		// PFKS's ratio grid is coarse: allow 3x.
		return res.Density*3 >= opt-1e-9 && res.Density <= opt+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPBDWithinItsBound(t *testing.T) {
	f := func(seed int64) bool {
		d := randomDigraph(seed, 8, 3)
		if d.M() == 0 {
			return true
		}
		opt := must(BruteForce(nil, d, solver.Params{})).Density
		res := must(PBD(nil, d, solver.Params{Delta: 2, Epsilon: 1, Workers: 2}))
		// Guarantee is 2δ(1+ε) = 8.
		return res.Density*8 >= opt-1e-9 && res.Density <= opt+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPBDDefaultsApplied(t *testing.T) {
	d := gen.ErdosRenyiDirected(200, 1000, 25)
	res := must(PBD(nil, d, solver.Params{Workers: 2})) // invalid params fall back to δ=2, ε=1
	if res.Density <= 0 {
		t.Fatal("PBD found nothing")
	}
}

// --- PFW ---

func TestPFWDirectedReasonable(t *testing.T) {
	base := gen.ErdosRenyiDirected(300, 1000, 26)
	d, s, tt := gen.PlantBiclique(base, 10, 14, 27)
	want := d.DensityST(s, tt)
	res := must(PFW(nil, d, solver.Params{Iterations: 150, Workers: 2}))
	if res.Density < want/2 {
		t.Fatalf("PFW density %v below half the planted %v", res.Density, want)
	}
}

func TestPFWTimesOut(t *testing.T) {
	d := gen.ErdosRenyiDirected(2000, 10000, 28)
	res := must(PFW(nil, d, solver.Params{Iterations: 100000, Workers: 2, Budget: 1}))
	if !res.TimedOut {
		t.Fatal("PFW must time out under an impossible budget")
	}
}

// --- helpers ---

func sameSet(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[int32]int{}
	for _, v := range a {
		m[v]++
	}
	for _, v := range b {
		m[v]--
	}
	for _, c := range m {
		if c != 0 {
			return false
		}
	}
	return true
}

func TestWStarWarmStartAblationAgrees(t *testing.T) {
	f := func(seed int64) bool {
		d := randomDigraph(seed, 30, 4)
		if d.M() == 0 {
			return true
		}
		warm := WStarSubgraph(d, 2, true)
		cold := WStarSubgraph(d, 2, false)
		return warm.WStar == cold.WStar && warm.Subgraph.M() == cold.Subgraph.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestWDecomposeValidity checks Definition 9 against the induce numbers:
// for every level w in the decomposition, the subgraph formed by the arcs
// with induce-number >= w must have every arc weight >= w (it *is* the
// w-induced subgraph by the nested property, Proposition 3).
func TestWDecomposeValidity(t *testing.T) {
	f := func(seed int64) bool {
		d := randomDigraph(seed, 25, 4)
		if d.M() == 0 {
			return true
		}
		res := WDecompose(d, 2)
		tails := d.ArcTails()
		levels := map[int64]bool{}
		for _, w := range res.InduceNumber {
			levels[w] = true
		}
		for w := range levels {
			// Build degree counts of the subgraph with induce number >= w.
			dplus := make(map[int32]int64)
			dminus := make(map[int32]int64)
			for a := int64(0); a < d.M(); a++ {
				if res.InduceNumber[a] >= w {
					dplus[tails[a]]++
					dminus[d.ArcHead(a)]++
				}
			}
			for a := int64(0); a < d.M(); a++ {
				if res.InduceNumber[a] >= w {
					if dplus[tails[a]]*dminus[d.ArcHead(a)] < w {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestInduceNumberMaximality checks the other half of Definition 10: no
// arc's induce-number understates it — the w-induced subgraph at w =
// induceNum(a)+1 must not contain a. Together with TestWDecomposeValidity
// this pins the decomposition exactly.
func TestInduceNumberMaximality(t *testing.T) {
	f := func(seed int64) bool {
		d := randomDigraph(seed, 20, 3)
		if d.M() == 0 {
			return true
		}
		res := WDecompose(d, 2)
		// Reference: serial peel computing the maximal subgraph with all
		// weights >= w, for each candidate w = induceNum+1.
		tails := d.ArcTails()
		for a := int64(0); a < d.M(); a++ {
			w := res.InduceNumber[a] + 1
			if inWInduced(d, tails, a, w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// inWInduced reports whether arc `target` survives serial peeling at
// threshold w (i.e. belongs to the w-induced subgraph).
func inWInduced(d *graph.Directed, tails []int32, target int64, w int64) bool {
	alive := make([]bool, d.M())
	dplus := make([]int64, d.N())
	dminus := make([]int64, d.N())
	for a := int64(0); a < d.M(); a++ {
		alive[a] = true
		dplus[tails[a]]++
		dminus[d.ArcHead(a)]++
	}
	for changed := true; changed; {
		changed = false
		for a := int64(0); a < d.M(); a++ {
			if alive[a] && dplus[tails[a]]*dminus[d.ArcHead(a)] < w {
				alive[a] = false
				dplus[tails[a]]--
				dminus[d.ArcHead(a)]--
				changed = true
			}
		}
	}
	return alive[target]
}

func TestExactPrunedMatchesExact(t *testing.T) {
	f := func(seed int64) bool {
		d := randomDigraph(seed, 20, 3)
		a := must(Exact(nil, d, solver.Params{}))
		b := must(ExactPruned(nil, d, solver.Params{Workers: 2}))
		return math.Abs(a.Density-b.Density) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestExactPrunedOnLargePlantedInstance(t *testing.T) {
	// 2000 vertices / 8000 arcs is far beyond Exact's O(n² log n) flows;
	// the ρ̃²/4 pruning collapses it to the planted block.
	base := gen.ErdosRenyiDirected(2000, 8000, 40)
	d, s, tt := gen.PlantBiclique(base, 12, 20, 41)
	res := must(ExactPruned(nil, d, solver.Params{Workers: 2}))
	planted := d.DensityST(s, tt)
	if res.Density < planted-1e-9 {
		t.Fatalf("exact-pruned density %v below the planted %v", res.Density, planted)
	}
}

func TestExactPrunedEmpty(t *testing.T) {
	res := must(ExactPruned(nil, graph.NewDirected(3, nil), solver.Params{Workers: 2}))
	if res.Algorithm != "ExactPruned" || res.Density != 0 {
		t.Fatalf("%+v", res)
	}
}

func TestCNPairSkyline(t *testing.T) {
	f := func(seed int64) bool {
		d := randomDigraph(seed, 25, 4)
		if d.M() == 0 {
			return CNPairSkyline(d, 2) == nil
		}
		sky := CNPairSkyline(d, 2)
		if len(sky) == 0 {
			return false
		}
		wstar := WStarSubgraph(d, 2, true).WStar
		best := int64(0)
		prevY := int32(1 << 30)
		for i, pr := range sky {
			x, y := pr[0], pr[1]
			// Strictly increasing x, strictly decreasing y (maximality).
			if i > 0 && x <= sky[i-1][0] {
				return false
			}
			if y >= prevY {
				return false
			}
			prevY = y
			// Each skyline pair's core must be non-empty and maximal in y.
			if s, tt := XYCore(d, x, y); len(s) == 0 || len(tt) == 0 {
				return false
			}
			if s, tt := XYCore(d, x, y+1); len(s) != 0 || len(tt) != 0 {
				return false
			}
			if int64(x)*int64(y) > best {
				best = int64(x) * int64(y)
			}
		}
		return best == wstar // Theorem 2 via the skyline
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCNPairSkylineFig4(t *testing.T) {
	sky := CNPairSkyline(fig4Graph(), 2)
	found := false
	for _, pr := range sky {
		if pr[0] == 4 && pr[1] == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("skyline %v missing the paper's [4, 3]", sky)
	}
}
