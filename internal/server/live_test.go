package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro"
)

// loadLive posts a live graph and returns its info.
func loadLive(t *testing.T, ts string, name, edges string) GraphInfo {
	t.Helper()
	var info GraphInfo
	req := LoadRequest{Name: name, Edges: edges, Live: true}
	if got := doJSON(t, "POST", ts+"/graphs", req, &info); got != http.StatusCreated {
		t.Fatalf("live load = %d, want 201", got)
	}
	if !info.Live {
		t.Fatal("live load reported live=false")
	}
	return info
}

// TestLiveHTTPRoundTrip is the end-to-end smoke test (`make live-smoke`):
// load a live graph, mutate it over HTTP, watch the version advance, read
// the standing densest answer, solve against the mutated snapshot.
func TestLiveHTTPRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Triangle {0,1,2} plus pendant vertex 3: the vertex set is fixed at
	// load time, so 3 must be resident before edges can grow onto it.
	info := loadLive(t, ts.URL, "lg", "0 1\n1 2\n2 0\n0 3\n")

	// Grow a 4-clique on {0,1,2,3}: k* goes 2 -> 3, density -> 1.5.
	var mres MutateResponse
	req := MutateRequest{Mutations: []MutationOp{
		{Op: "insert", U: 1, V: 3},
		{Op: "insert", U: 2, V: 3},
		{Op: "insert", U: 2, V: 0}, // already present: a counted no-op
		{Op: "delete", U: 0, V: 9}, // out of range: whole batch must reject
	}}
	var eb errorBody
	if got := doJSON(t, "POST", ts.URL+"/graphs/lg/edges", req, &eb); got != http.StatusBadRequest {
		t.Fatalf("batch with out-of-range edge = %d, want 400", got)
	}
	var check GraphInfo
	doJSON(t, "GET", ts.URL+"/graphs/lg", nil, &check)
	if check.M != 4 || check.Version != info.Version {
		t.Fatalf("rejected batch leaked: m=%d version=%d (want m=4 version=%d)", check.M, check.Version, info.Version)
	}

	req.Mutations = req.Mutations[:3] // drop the invalid entry
	if got := doJSON(t, "POST", ts.URL+"/graphs/lg/edges", req, &mres); got != http.StatusOK {
		t.Fatalf("mutation = %d, want 200", got)
	}
	if mres.Inserted != 2 || mres.Noops != 1 || mres.M != 6 {
		t.Fatalf("mutation accounting: %+v", mres)
	}
	if mres.Version <= info.Version {
		t.Fatalf("version did not advance: %d -> %d", info.Version, mres.Version)
	}
	if mres.KStar != 3 || mres.Density != 1.5 {
		t.Fatalf("standing answer after mutation: k*=%d density=%g, want 3 / 1.5", mres.KStar, mres.Density)
	}

	// The standing densest endpoint answers without a solve.
	var dres UDSResponse
	if got := doJSON(t, "GET", ts.URL+"/graphs/lg/densest", nil, &dres); got != http.StatusOK {
		t.Fatalf("densest = %d, want 200", got)
	}
	if dres.Algorithm != "DynamicKStarCore" || dres.Density != 1.5 || dres.Size != 4 || dres.Version != mres.Version {
		t.Fatalf("densest answer: %+v", dres)
	}

	// A full solve runs against the mutated snapshot and agrees.
	var sres UDSResponse
	if got := doJSON(t, "POST", ts.URL+"/solve/uds", SolveRequest{Graph: "lg", Algo: "exact-pruned"}, &sres); got != http.StatusOK {
		t.Fatalf("solve = %d, want 200", got)
	}
	if sres.Density != 1.5 || sres.Version != mres.Version {
		t.Fatalf("solve on mutated graph: density=%g version=%d, want 1.5 / %d", sres.Density, sres.Version, mres.Version)
	}

	// A deletion drops the version-keyed cache entry eagerly: the same
	// query must re-solve at a new version, and see the new graph.
	doJSON(t, "POST", ts.URL+"/graphs/lg/edges", MutateRequest{Mutations: []MutationOp{{Op: "delete", U: 0, V: 3}}}, &mres)
	sres = UDSResponse{}
	doJSON(t, "POST", ts.URL+"/solve/uds", SolveRequest{Graph: "lg", Algo: "exact-pruned"}, &sres)
	if sres.Cached || sres.Version != mres.Version {
		t.Fatalf("post-delete solve: cached=%v version=%d, want fresh at %d", sres.Cached, sres.Version, mres.Version)
	}
}

// TestLiveHTTPErrors covers the structured error surface of the mutation
// path: static graphs reject with not_live, malformed ops with 400, and
// unknown names with 404.
func TestLiveHTTPErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var eb errorBody
	req := MutateRequest{Mutations: []MutationOp{{Op: "insert", U: 0, V: 1}}}
	if got := doJSON(t, "POST", ts.URL+"/graphs/clique/edges", req, &eb); got != http.StatusConflict || eb.Error.Code != CodeNotLive {
		t.Fatalf("mutating static graph = %d %q, want 409 %q", got, eb.Error.Code, CodeNotLive)
	}
	if got := doJSON(t, "GET", ts.URL+"/graphs/clique/densest", nil, &eb); got != http.StatusConflict || eb.Error.Code != CodeNotLive {
		t.Fatalf("densest on static graph = %d %q, want 409 %q", got, eb.Error.Code, CodeNotLive)
	}
	if got := doJSON(t, "POST", ts.URL+"/graphs/nope/edges", req, &eb); got != http.StatusNotFound || eb.Error.Code != CodeUnknownGraph {
		t.Fatalf("mutating unknown graph = %d %q, want 404 %q", got, eb.Error.Code, CodeUnknownGraph)
	}

	loadLive(t, ts.URL, "lg2", "0 1\n")
	if got := doJSON(t, "POST", ts.URL+"/graphs/lg2/edges", MutateRequest{}, &eb); got != http.StatusBadRequest {
		t.Fatalf("empty batch = %d, want 400", got)
	}
	bad := MutateRequest{Mutations: []MutationOp{{Op: "upsert", U: 0, V: 1}}}
	if got := doJSON(t, "POST", ts.URL+"/graphs/lg2/edges", bad, &eb); got != http.StatusBadRequest {
		t.Fatalf("unknown op = %d, want 400", got)
	}
	var eb2 errorBody
	if got := doJSON(t, "POST", ts.URL+"/graphs", LoadRequest{Name: "dlive", Edges: "0 1\n", Directed: true, Live: true}, &eb2); got != http.StatusBadRequest {
		t.Fatalf("directed live load = %d, want 400", got)
	}
}

// TestLiveMaxDegreeAfterDeletes checks that a live graph's published
// max_degree is exact at every version, deletions included: once every
// edge of the max-degree vertex is deleted, GET /graphs/{name} reports the
// new maximum, not the old one as an upper bound.
func TestLiveMaxDegreeAfterDeletes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Hub 0 has degree 4; vertex 2, degree 3, is the runner-up.
	info := loadLive(t, ts.URL, "hub", "0 1\n0 2\n0 3\n0 4\n1 2\n2 3\n")
	if info.MaxDegree != 4 {
		t.Fatalf("loaded max_degree = %d, want 4", info.MaxDegree)
	}
	var mres MutateResponse
	req := MutateRequest{Mutations: []MutationOp{
		{Op: "delete", U: 0, V: 1}, {Op: "delete", U: 2, V: 0},
		{Op: "delete", U: 0, V: 3}, {Op: "delete", U: 4, V: 0},
	}}
	if got := doJSON(t, "POST", ts.URL+"/graphs/hub/edges", req, &mres); got != http.StatusOK || mres.Deleted != 4 {
		t.Fatalf("deleting the hub's edges = %d %+v, want 200 deleted=4", got, mres)
	}
	var after GraphInfo
	doJSON(t, "GET", ts.URL+"/graphs/hub", nil, &after)
	if after.M != 2 || after.MaxDegree != 2 || after.Version != mres.Version {
		t.Fatalf("after deletes: m=%d max_degree=%d version=%d, want m=2 max_degree=2 version=%d",
			after.M, after.MaxDegree, after.Version, mres.Version)
	}
}

// TestLiveDeleteClosesWriter checks DELETE on a live graph shuts the
// writer down: later mutations are structured errors, not hangs.
func TestLiveDeleteClosesWriter(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	loadLive(t, ts.URL, "lg3", "0 1\n1 2\n")
	e, err := s.Registry().Get("lg3")
	if err != nil {
		t.Fatal(err)
	}
	if got := doJSON(t, "DELETE", ts.URL+"/graphs/lg3", nil, nil); got != http.StatusNoContent {
		t.Fatalf("delete = %d, want 204", got)
	}
	var eb errorBody
	req := MutateRequest{Mutations: []MutationOp{{Op: "insert", U: 0, V: 2}}}
	if got := doJSON(t, "POST", ts.URL+"/graphs/lg3/edges", req, &eb); got != http.StatusNotFound {
		t.Fatalf("mutating deleted graph = %d, want 404", got)
	}
	// The writer itself is closed, not just unlinked.
	if _, err := e.Live.Enqueue(t.Context(), nil); err == nil {
		t.Fatal("writer still accepting after delete")
	}
}

// TestLiveConcurrentMutateSolve is the race chaos test (`make race` runs
// this package with -race): concurrent mutation batches, solves, standing
// densest reads and listings on one live graph must stay torn-free — every
// response consistent with *some* published version — while the writer
// serializes all structural change. Consistency is then proven by a final
// equivalence check of the standing answer against a fresh exact solve.
func TestLiveConcurrentMutateSolve(t *testing.T) {
	s, ts := newTestServer(t, Config{LiveQueueDepth: 256})
	const n = 24
	var seed strings.Builder
	for v := 1; v < n; v++ {
		fmt.Fprintf(&seed, "0 %d\n", v) // a star: every vertex id is resident
	}
	loadLive(t, ts.URL, "race", seed.String())

	const (
		mutators = 4
		batches  = 25
		solvers  = 3
	)
	var wg sync.WaitGroup
	for w := 0; w < mutators; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for b := 0; b < batches; b++ {
				var muts []MutationOp
				for k := 0; k < 4; k++ {
					op := "insert"
					if rng.Intn(3) == 0 {
						op = "delete"
					}
					muts = append(muts, MutationOp{Op: op, U: int32(rng.Intn(n)), V: int32(rng.Intn(n))})
				}
				body, _ := json.Marshal(MutateRequest{Mutations: muts})
				resp, err := http.Post(ts.URL+"/graphs/race/edges", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("mutator %d: transport error: %v", w, err)
					return
				}
				var eb errorBody
				json.NewDecoder(resp.Body).Decode(&eb)
				resp.Body.Close()
				// 429 backlog is a legitimate outcome under pressure; any
				// other non-200 is a bug.
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					t.Errorf("mutator %d: status %d code %q", w, resp.StatusCode, eb.Error.Code)
				}
			}
		}(w)
	}
	for w := 0; w < solvers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				// pkmc is answered from the maintained core, charikar solves
				// a snapshot: both race the writer.
				algo := "pkmc"
				if b%2 == 1 {
					algo = "charikar"
				}
				var sres UDSResponse
				if got := doJSON(t, "POST", ts.URL+"/solve/uds", SolveRequest{Graph: "race", Algo: algo, Options: SolveOptions{Workers: 2}}, &sres); got != http.StatusOK {
					t.Errorf("solver %d: status %d", w, got)
					return
				}
				var dres UDSResponse
				if got := doJSON(t, "GET", ts.URL+"/graphs/race/densest", nil, &dres); got != http.StatusOK {
					t.Errorf("reader %d: status %d", w, got)
					return
				}
				doJSON(t, "GET", ts.URL+"/graphs", nil, &struct{}{})
			}
		}(w)
	}
	wg.Wait()

	// Quiesced: the standing incremental answer must now agree with a
	// fresh exact solve on the final snapshot (2-approx vs optimum: the
	// maintained k*-core density can be below the exact optimum but the
	// core numbers must be exact, so compare against the exact k*-core
	// via a from-scratch solve with the same algorithm family).
	var dres UDSResponse
	doJSON(t, "GET", ts.URL+"/graphs/race/densest", nil, &dres)
	e, err := s.Registry().Get("race")
	if err != nil {
		t.Fatal(err)
	}
	snap, version := e.Live.Snapshot()
	want, err := dsd.SolveUDS(snap, dsd.AlgoBZ, dsd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dres.Version != version || dres.KStar != want.KStar || dres.Density != want.Density || len(dres.Vertices) != len(want.Vertices) {
		t.Fatalf("standing answer diverged from from-scratch recompute: live @%d k*=%d ρ=%g |S|=%d, BZ @%d k*=%d ρ=%g |S|=%d",
			dres.Version, dres.KStar, dres.Density, len(dres.Vertices), version, want.KStar, want.Density, len(want.Vertices))
	}
}

// TestLivePublishMidFlight pins the version discipline of coalescing on a
// mutating graph: a solve keys on the (snapshot, version) pair taken at
// admission, so a request arriving after a mid-flight version publish must
// not ride the stale flight — it runs (and caches) against the new version,
// while the stale flight's riders get a result honestly labeled with the
// displaced version it was computed from. It solves with charikar, which
// runs on the snapshot (k*-core solvers are answered from the maintained
// core and never fly).
func TestLivePublishMidFlight(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 4})
	info := loadLive(t, ts.URL, "lg", "0 1\n1 2\n2 0\n0 3\n")

	admitted := make(chan struct{})
	release := make(chan struct{})
	var first atomic.Bool
	first.Store(true)
	s.solveGate = func() {
		if first.CompareAndSwap(true, false) {
			close(admitted)
			<-release
		}
	}

	// Request A snapshots the pre-mutation state; its flight leader parks
	// behind the gate.
	stale := make(chan UDSResponse, 1)
	go func() {
		var resp UDSResponse
		if got := doJSON(t, "POST", ts.URL+"/solve/uds", SolveRequest{Graph: "lg", Algo: "charikar"}, &resp); got != http.StatusOK {
			t.Errorf("stale-flight request = %d, want 200", got)
		}
		stale <- resp
	}()
	<-admitted

	// A mutation publishes a new version while A's flight is in the air.
	var mres MutateResponse
	req := MutateRequest{Mutations: []MutationOp{
		{Op: "insert", U: 1, V: 3},
		{Op: "insert", U: 2, V: 3},
	}}
	if got := doJSON(t, "POST", ts.URL+"/graphs/lg/edges", req, &mres); got != http.StatusOK {
		t.Fatalf("mid-flight mutation = %d, want 200", got)
	}
	if mres.Version <= info.Version {
		t.Fatalf("mutation did not advance the version: %d -> %d", info.Version, mres.Version)
	}

	// Request B arrives after the publish: its snapshot is the new
	// version, its key differs, and it must not join A's stale flight.
	var fresh UDSResponse
	if got := doJSON(t, "POST", ts.URL+"/solve/uds", SolveRequest{Graph: "lg", Algo: "charikar"}, &fresh); got != http.StatusOK {
		t.Fatalf("post-publish request = %d, want 200", got)
	}
	if fresh.Coalesced || fresh.Cached {
		t.Fatalf("post-publish request = coalesced %v cached %v, want a fresh solve", fresh.Coalesced, fresh.Cached)
	}
	if fresh.Version != mres.Version {
		t.Fatalf("post-publish result version = %d, want %d", fresh.Version, mres.Version)
	}
	if fresh.Density != 1.5 {
		t.Fatalf("post-publish density = %v, want the 4-clique's 1.5", fresh.Density)
	}

	// A's riders get the displaced version's answer, labeled as such —
	// never the new version's key with the old version's data.
	close(release)
	got := <-stale
	if got.Version != info.Version {
		t.Fatalf("stale-flight result version = %d, want the displaced %d", got.Version, info.Version)
	}
	if got.Density == 1.5 {
		t.Fatal("stale-flight result contains post-mutation data under the old version")
	}

	// The cache serves the current version: a repeat request hits B's
	// entry (the publish invalidated nothing newer than it).
	var cached UDSResponse
	if got := doJSON(t, "POST", ts.URL+"/solve/uds", SolveRequest{Graph: "lg", Algo: "charikar"}, &cached); got != http.StatusOK {
		t.Fatalf("repeat request = %d, want 200", got)
	}
	if !cached.Cached || cached.Version != mres.Version {
		t.Fatalf("repeat = cached %v version %d, want a hit on version %d", cached.Cached, cached.Version, mres.Version)
	}
}

// TestMaintainedSolveRandomized pins the maintained route to the library:
// on ER and Chung–Lu live graphs under random insert/delete batches,
// after every batch each k*-core solver — and the family
// default — is answered from the maintained core with exactly what
// dsd.SolveUDS returns on the snapshot at the same version: density (==),
// k*, the sorted vertex set and the version. A traced request for the same
// solver still runs on the snapshot and agrees.
func TestMaintainedSolveRandomized(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	graphs := map[string]*dsd.Graph{
		"er":      dsd.GenerateErdosRenyi(80, 320, 31),
		"chunglu": dsd.GenerateChungLu(120, 420, 2.3, 32),
	}
	var algos []string
	for _, info := range dsd.Algorithms(dsd.ProblemUDS) {
		if info.KStarCore {
			algos = append(algos, string(info.Name))
		}
	}
	if len(algos) < 2 {
		t.Fatalf("registry marks %v as k*-core solvers, want several", algos)
	}
	algos = append(algos, "") // the family default
	var served int64
	for name, g := range graphs {
		if _, err := s.PutLive(name, g, "generated", false); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(len(name))))
		for batchNo := 0; batchNo < 20; batchNo++ {
			e, err := s.Registry().Get(name)
			if err != nil {
				t.Fatal(err)
			}
			snap, _ := e.Live.Snapshot()
			edges := snap.Edges()
			var muts []MutationOp
			for k := 1 + rng.Intn(24); k > 0; k-- {
				if len(edges) > 0 && rng.Intn(3) == 0 {
					ed := edges[rng.Intn(len(edges))]
					muts = append(muts, MutationOp{Op: "delete", U: ed.U, V: ed.V})
					continue
				}
				// Degree-biased inserts grow the dense core.
				u := int32(rng.Intn(g.N()))
				v := int32(rng.Intn(g.N()))
				if len(edges) > 0 {
					v = edges[rng.Intn(len(edges))].V
				}
				muts = append(muts, MutationOp{Op: "insert", U: u, V: v})
			}
			var mres MutateResponse
			if got := doJSON(t, "POST", ts.URL+"/graphs/"+name+"/edges", MutateRequest{Mutations: muts}, &mres); got != http.StatusOK {
				t.Fatalf("%s batch %d: mutation = %d", name, batchNo, got)
			}
			snap, version := e.Live.Snapshot()
			for _, algo := range algos {
				want, err := dsd.SolveUDS(snap, dsd.Algo(algo), dsd.Options{})
				if err != nil {
					t.Fatal(err)
				}
				for _, traced := range []bool{false, true} {
					var got UDSResponse
					req := SolveRequest{Graph: name, Algo: algo, Options: SolveOptions{Trace: traced}}
					if code := doJSON(t, "POST", ts.URL+"/solve/uds", req, &got); code != http.StatusOK {
						t.Fatalf("%s batch %d %q: solve = %d", name, batchNo, algo, code)
					}
					if got.Maintained == traced {
						t.Fatalf("%s batch %d %q traced=%v: maintained = %v", name, batchNo, algo, traced, got.Maintained)
					}
					if !traced {
						served++
					}
					if got.Version != version || got.Algorithm != want.Algorithm || got.Density != want.Density ||
						got.KStar != want.KStar || got.Size != len(want.Vertices) ||
						!slices.Equal(sortedCopy(got.Vertices), sortedCopy(want.Vertices)) {
						t.Fatalf("%s batch %d %q traced=%v: served %s@%d k*=%d ρ=%v |S|=%d, library %s@%d k*=%d ρ=%v |S|=%d",
							name, batchNo, algo, traced, got.Algorithm, got.Version, got.KStar, got.Density, got.Size,
							want.Algorithm, version, want.KStar, want.Density, len(want.Vertices))
					}
				}
			}
		}
	}
	if got := s.metrics.MaintainedSolves.Value(); got != served {
		t.Fatalf("%s = %d, want the %d maintained answers served", MetricMaintainedSolves, got, served)
	}
}
