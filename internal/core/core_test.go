package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

// fig2Graph mimics the paper's Fig. 2: a K4 nucleus (the k*-core, k* = 3)
// with a degree-2 tail hanging off it.
func fig2Graph() *graph.Undirected {
	return graph.NewUndirected(8, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 3}, // K4
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 6}, {U: 6, V: 7}, // tail
	})
}

// naiveCore is an independent O(n·m) reference: repeatedly find the global
// minimum degree and delete one such vertex.
func naiveCore(g *graph.Undirected) []int32 {
	n := g.N()
	alive := make([]bool, n)
	deg := make([]int32, n)
	for v := 0; v < n; v++ {
		alive[v] = true
		deg[v] = g.Degree(int32(v))
	}
	coreNum := make([]int32, n)
	var level int32
	for remaining := n; remaining > 0; remaining-- {
		min := int32(1 << 30)
		var pick int32 = -1
		for v := 0; v < n; v++ {
			if alive[v] && deg[v] < min {
				min = deg[v]
				pick = int32(v)
			}
		}
		if min > level {
			level = min
		}
		coreNum[pick] = level
		alive[pick] = false
		for _, u := range g.Neighbors(pick) {
			if alive[u] {
				deg[u]--
			}
		}
	}
	return coreNum
}

func randomGraph(seed int64, maxN, mult int) *graph.Undirected {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(maxN)
	var edges []graph.Edge
	for i := 0; i < rng.Intn(n*mult+1); i++ {
		edges = append(edges, graph.Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))})
	}
	return graph.NewUndirected(n, edges)
}

func TestBZAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 60, 4)
		got := BZ(g)
		want := naiveCore(g)
		for v := range got {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestBZFig2(t *testing.T) {
	got := BZ(fig2Graph())
	want := []int32{3, 3, 3, 3, 1, 1, 1, 1}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("core numbers = %v, want %v", got, want)
		}
	}
}

func TestBZEmptyAndSingleton(t *testing.T) {
	if got := BZ(graph.NewUndirected(0, nil)); len(got) != 0 {
		t.Fatal("empty graph")
	}
	got := BZ(graph.NewUndirected(3, nil))
	for _, c := range got {
		if c != 0 {
			t.Fatalf("isolated vertices must have core 0, got %v", got)
		}
	}
}

func TestKStarHelpers(t *testing.T) {
	cores := []int32{3, 3, 1, 0, 3, 2}
	if KStar(cores) != 3 {
		t.Fatalf("KStar = %d", KStar(cores))
	}
	k, vs := KStarCore(cores)
	if k != 3 || len(vs) != 3 {
		t.Fatalf("KStarCore = %d, %v", k, vs)
	}
	if got := KCore(cores, 2); len(got) != 4 {
		t.Fatalf("KCore(2) = %v", got)
	}
	if KStar(nil) != 0 {
		t.Fatal("KStar(nil)")
	}
}

func TestLocalMatchesBZ(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 80, 4)
		for _, p := range []int{1, 4} {
			res := Local(g, p, nil)
			want := BZ(g)
			for v := range want {
				if res.CoreNum[v] != want[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestLocalFig2Converges(t *testing.T) {
	res := Local(fig2Graph(), 2, nil)
	want := []int32{3, 3, 3, 3, 1, 1, 1, 1}
	for v := range want {
		if res.CoreNum[v] != want[v] {
			t.Fatalf("Local core numbers = %v, want %v", res.CoreNum, want)
		}
	}
	if res.Iterations < 2 {
		t.Fatalf("iterations = %d, suspiciously few", res.Iterations)
	}
}

func TestPKCMatchesBZ(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 80, 4)
		for _, p := range []int{1, 4} {
			res := PKC(g, p)
			want := BZ(g)
			for v := range want {
				if res.CoreNum[v] != want[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPKCIterationsIsKStarPlusLevels(t *testing.T) {
	g := fig2Graph() // k* = 3, levels 0..3 scanned plus the exhaust check
	res := PKC(g, 2)
	// Every level 0..k* must be visited (vertices exist at levels 1,2,3),
	// so iterations >= k*. It is bounded by k*+2 in the paper's counting.
	if res.Iterations < 3 || res.Iterations > 5 {
		t.Fatalf("iterations = %d, want ≈ k*+1 = 4", res.Iterations)
	}
}

func TestPKMCFindsKStarCore(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 80, 4)
		for _, p := range []int{1, 4} {
			res := PKMC(g, p, PKMCOptions{Paranoid: true})
			wantK, wantCore := KStarCore(BZ(g))
			if res.KStar != wantK {
				return false
			}
			if !equalSets(res.Vertices, wantCore) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestPKMCFig2EarlyStop(t *testing.T) {
	res := PKMC(fig2Graph(), 2, PKMCOptions{})
	if res.KStar != 3 {
		t.Fatalf("k* = %d, want 3", res.KStar)
	}
	if !equalSets(res.Vertices, []int32{0, 1, 2, 3}) {
		t.Fatalf("k*-core = %v, want {0,1,2,3}", res.Vertices)
	}
	full := Local(fig2Graph(), 2, nil)
	if res.Iterations > full.Iterations {
		t.Fatalf("PKMC used %d iterations, Local only %d", res.Iterations, full.Iterations)
	}
}

func TestPKMCEarlyStopSavesIterationsOnWebModel(t *testing.T) {
	// A power-law body with a planted nucleus clique and pendant filament
	// chains — the dataset shape of the paper's experiments. The nucleus
	// stabilizes the top h-values within a couple of sweeps while the
	// filaments force Local to run ≈ chain-length sweeps.
	body := gen.ChungLu(3000, 30000, 2.1, 42)
	g := gen.Composite(body, 60, 4, 50, 43)
	pk := PKMC(g, 4, PKMCOptions{})
	loc := Local(g, 4, nil)
	if pk.Iterations*3 > loc.Iterations {
		t.Fatalf("PKMC %d iterations vs Local %d — early stop saved too little", pk.Iterations, loc.Iterations)
	}
	wantK, wantCore := KStarCore(loc.CoreNum)
	if pk.KStar != wantK {
		t.Fatalf("early stop returned k*=%d, want %d", pk.KStar, wantK)
	}
	if !equalSets(pk.Vertices, wantCore) {
		t.Fatal("early-stopped core set differs from converged core set")
	}
}

func TestPKMCCorrectEvenWithoutEarlyStopOpportunity(t *testing.T) {
	// A plain Chung–Lu graph has a diffuse core: h_max ratchets down almost
	// every sweep, so the Theorem-1 criterion may never fire before full
	// convergence. PKMC must still return the exact k*-core.
	g := gen.ChungLu(3000, 30000, 2.1, 42)
	pk := PKMC(g, 4, PKMCOptions{Paranoid: true})
	wantK, wantCore := KStarCore(BZ(g))
	if pk.KStar != wantK || !equalSets(pk.Vertices, wantCore) {
		t.Fatalf("k*=%d want %d", pk.KStar, wantK)
	}
}

func TestPKMCAblationVariantsAgree(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 60, 4)
		base := PKMC(g, 2, PKMCOptions{})
		noStop := PKMC(g, 2, PKMCOptions{DisableEarlyStop: true})
		noGuard := PKMC(g, 2, PKMCOptions{DisableProp1Guard: true, Paranoid: true})
		if base.KStar != noStop.KStar || base.KStar != noGuard.KStar {
			return false
		}
		return equalSets(base.Vertices, noStop.Vertices) && equalSets(base.Vertices, noGuard.Vertices)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPKMCEmptyGraph(t *testing.T) {
	res := PKMC(graph.NewUndirected(0, nil), 2, PKMCOptions{})
	if res.KStar != 0 || len(res.Vertices) != 0 {
		t.Fatalf("empty graph: %+v", res)
	}
	res = PKMC(graph.NewUndirected(5, nil), 2, PKMCOptions{})
	if res.KStar != 0 || len(res.Vertices) != 5 {
		t.Fatalf("edgeless graph: k*=%d |core|=%d (0-core is all vertices)", res.KStar, len(res.Vertices))
	}
}

func TestPKMCClique(t *testing.T) {
	var edges []graph.Edge
	const k = 10
	for i := int32(0); i < k; i++ {
		for j := i + 1; j < k; j++ {
			edges = append(edges, graph.Edge{U: i, V: j})
		}
	}
	res := PKMC(graph.NewUndirected(k, edges), 3, PKMCOptions{})
	if res.KStar != k-1 || len(res.Vertices) != k {
		t.Fatalf("clique: k*=%d |core|=%d", res.KStar, len(res.Vertices))
	}
	if res.Iterations > 2 {
		t.Fatalf("clique should stop almost immediately, took %d iterations", res.Iterations)
	}
}

func TestHIndexOf(t *testing.T) {
	h := []int32{5, 3, 3, 1, 0}
	buf := make([]int32, 16)
	cases := []struct {
		neigh []int32
		want  int32
	}{
		{nil, 0},
		{[]int32{0}, 1},             // one neighbor with h=5 >= 1
		{[]int32{3}, 1},             // one neighbor with h=1
		{[]int32{4}, 0},             // one neighbor with h=0
		{[]int32{0, 1, 2}, 3},       // 5,3,3 -> h=3
		{[]int32{0, 1, 2, 3, 4}, 3}, // 5,3,3,1,0 -> h=3
		{[]int32{3, 4}, 1},          // 1,0 -> h=1
	}
	for _, c := range cases {
		if got := hIndexOf(h, c.neigh, buf); got != c.want {
			t.Fatalf("hIndexOf(%v) = %d, want %d", c.neigh, got, c.want)
		}
	}
}

func TestCollectAtSortedAndComplete(t *testing.T) {
	h := make([]int32, 10000)
	for i := range h {
		h[i] = int32(i % 7)
	}
	got := collectAt(h, 3, 4)
	if len(got) != 10000/7+1 {
		t.Fatalf("len = %d", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("collectAt output not sorted")
	}
	for _, v := range got {
		if h[v] != 3 {
			t.Fatalf("vertex %d has h %d", v, h[v])
		}
	}
}

func equalSets(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]int32(nil), a...)
	bs := append([]int32(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}
