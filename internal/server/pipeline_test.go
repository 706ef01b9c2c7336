package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	"repro"
)

// pathAnswer is the family-neutral view of one solve response: the answer
// (density, sorted vertex sets, graph version) plus the per-request flags
// the path under test must set.
type pathAnswer struct {
	density float64
	s, t    []int32
	version int64
	flags   pathFlags
}

type pathFlags struct {
	cached, coalesced, degraded, traced, maintained bool
}

// pathFamily binds the path-equivalence suite to one problem family: its
// route and test graph, the library oracle, and the wire decoder.
type pathFamily struct {
	name    string
	problem dsd.Problem
	graph   string
	algo    string
	// library solves the named graph's current state (a live graph's
	// snapshot) with the library — the answer every path must reproduce.
	library func(t *testing.T, s *Server, graph string, algo dsd.Algo) pathAnswer
	// post sends one solve request and decodes the family's response; -1
	// for a transport or decoding failure.
	post func(url string, req SolveRequest) (int, pathAnswer)
}

// trySolve posts req to url and decodes the reply into out. It reports
// failures as status -1 instead of failing the test, so it is safe off the
// test's goroutine.
func trySolve(url string, req SolveRequest, out any) int {
	body, err := json.Marshal(req)
	if err != nil {
		return -1
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return -1
	}
	return resp.StatusCode
}

func sortedCopy(v []int32) []int32 {
	c := slices.Clone(v)
	slices.Sort(c)
	return c
}

var pathFamilies = []pathFamily{
	{
		name: "uds", problem: dsd.ProblemUDS, graph: "clique", algo: "pkmc",
		library: func(t *testing.T, s *Server, graph string, algo dsd.Algo) pathAnswer {
			t.Helper()
			e, err := s.Registry().Get(graph)
			if err != nil {
				t.Fatal(err)
			}
			g, version := e.G, e.Version
			if e.Live != nil {
				g, version = e.Live.Snapshot()
			}
			res, err := dsd.SolveUDS(g, algo, dsd.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return pathAnswer{density: res.Density, s: sortedCopy(res.Vertices), version: version}
		},
		post: func(url string, req SolveRequest) (int, pathAnswer) {
			var resp UDSResponse
			status := trySolve(url+"/solve/uds", req, &resp)
			return status, pathAnswer{
				density: resp.Density, s: sortedCopy(resp.Vertices), version: resp.Version,
				flags: pathFlags{resp.Cached, resp.Coalesced, resp.Degraded, resp.Trace != nil, resp.Maintained},
			}
		},
	},
	{
		name: "dds", problem: dsd.ProblemDDS, graph: "biclique", algo: "pwc",
		library: func(t *testing.T, s *Server, graph string, algo dsd.Algo) pathAnswer {
			t.Helper()
			e, err := s.Registry().Get(graph)
			if err != nil {
				t.Fatal(err)
			}
			res, err := dsd.SolveDDS(e.D, algo, dsd.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return pathAnswer{density: res.Density, s: sortedCopy(res.S), t: sortedCopy(res.T), version: e.Version}
		},
		post: func(url string, req SolveRequest) (int, pathAnswer) {
			var resp DDSResponse
			status := trySolve(url+"/solve/dds", req, &resp)
			return status, pathAnswer{
				density: resp.Density, s: sortedCopy(resp.S), t: sortedCopy(resp.T), version: resp.Version,
				flags: pathFlags{resp.Cached, resp.Coalesced, resp.Degraded, resp.Trace != nil, resp.Maintained},
			}
		},
	},
}

// mustPost sends one solve request that must succeed.
func (f pathFamily) mustPost(t *testing.T, url string, req SolveRequest) pathAnswer {
	t.Helper()
	status, got := f.post(url, req)
	if status != http.StatusOK {
		t.Fatalf("%s solve %+v = %d, want 200", f.name, req, status)
	}
	return got
}

// TestSolvePathEquivalence pins that every way a solve request can be
// served — fresh, from the cache, riding a coalesced flight, traced,
// degraded, from a mutated live graph's maintained k*-core, or against its
// snapshot — returns exactly the library's answer for the (graph state,
// algorithm) that ran, with the per-request flags describing the path
// taken.
func TestSolvePathEquivalence(t *testing.T) {
	paths := []struct {
		name    string
		cfg     Config
		udsOnly bool
		// serve drives one path and returns the response under test plus
		// the graph and algorithm the library must reproduce.
		serve func(t *testing.T, s *Server, ts *httptest.Server, f pathFamily) (got pathAnswer, graph string, algo dsd.Algo)
		want  pathFlags
	}{
		{
			name: "fresh",
			serve: func(t *testing.T, _ *Server, ts *httptest.Server, f pathFamily) (pathAnswer, string, dsd.Algo) {
				return f.mustPost(t, ts.URL, SolveRequest{Graph: f.graph, Algo: f.algo}), f.graph, dsd.Algo(f.algo)
			},
		},
		{
			name: "cache hit",
			serve: func(t *testing.T, _ *Server, ts *httptest.Server, f pathFamily) (pathAnswer, string, dsd.Algo) {
				req := SolveRequest{Graph: f.graph, Algo: f.algo}
				if first := f.mustPost(t, ts.URL, req); first.flags.cached {
					t.Fatal("first request claims cached")
				}
				return f.mustPost(t, ts.URL, req), f.graph, dsd.Algo(f.algo)
			},
			want: pathFlags{cached: true},
		},
		{
			name: "coalesced rider",
			serve: func(t *testing.T, s *Server, ts *httptest.Server, f pathFamily) (pathAnswer, string, dsd.Algo) {
				admitted := make(chan struct{})
				release := make(chan struct{})
				var once sync.Once
				s.solveGate = func() { once.Do(func() { close(admitted); <-release }) }
				req := SolveRequest{Graph: f.graph, Algo: f.algo}
				type result struct {
					status int
					got    pathAnswer
				}
				leader, rider := make(chan result, 1), make(chan result, 1)
				go func() {
					status, got := f.post(ts.URL, req)
					leader <- result{status, got}
				}()
				<-admitted
				go func() {
					status, got := f.post(ts.URL, req)
					rider <- result{status, got}
				}()
				waitForWaiters(t, s, cacheKey(f.graph, 1, string(f.problem), f.algo, SolveOptions{}), 2)
				close(release)
				l, r := <-leader, <-rider
				if l.status != http.StatusOK || r.status != http.StatusOK {
					t.Fatalf("leader/rider = %d/%d, want 200/200", l.status, r.status)
				}
				if l.got.flags != (pathFlags{}) {
					t.Fatalf("leader flags = %+v, want a fresh run", l.got.flags)
				}
				if l.got.density != r.got.density || !slices.Equal(l.got.s, r.got.s) || !slices.Equal(l.got.t, r.got.t) {
					t.Fatalf("rider answer %+v differs from leader's %+v", r.got, l.got)
				}
				return r.got, f.graph, dsd.Algo(f.algo)
			},
			want: pathFlags{coalesced: true},
		},
		{
			name: "traced",
			serve: func(t *testing.T, _ *Server, ts *httptest.Server, f pathFamily) (pathAnswer, string, dsd.Algo) {
				req := SolveRequest{Graph: f.graph, Algo: f.algo, Options: SolveOptions{Trace: true}}
				return f.mustPost(t, ts.URL, req), f.graph, dsd.Algo(f.algo)
			},
			want: pathFlags{traced: true},
		},
		{
			name: "degraded",
			cfg:  Config{DegradePolicy: DegradeAuto},
			serve: func(t *testing.T, s *Server, ts *httptest.Server, f pathFamily) (pathAnswer, string, dsd.Algo) {
				rung := dsd.DegradationLadder(f.problem)[0].Name
				seedEstimate(s, f.graph, "exact-pruned", 10_000)
				seedEstimate(s, f.graph, string(rung), 1)
				req := SolveRequest{Graph: f.graph, Algo: "exact-pruned", Options: SolveOptions{TimeoutMs: 1000}}
				return f.mustPost(t, ts.URL, req), f.graph, rung
			},
			want: pathFlags{degraded: true},
		},
		{
			name:    "live maintained",
			udsOnly: true,
			serve: func(t *testing.T, _ *Server, ts *httptest.Server, f pathFamily) (pathAnswer, string, dsd.Algo) {
				return solveMutatedLive(t, ts.URL, f, "pkmc"), "lg", "pkmc"
			},
			want: pathFlags{maintained: true},
		},
		{
			name:    "live snapshot",
			udsOnly: true,
			serve: func(t *testing.T, _ *Server, ts *httptest.Server, f pathFamily) (pathAnswer, string, dsd.Algo) {
				return solveMutatedLive(t, ts.URL, f, "charikar"), "lg", "charikar"
			},
		},
	}
	for _, f := range pathFamilies {
		for _, p := range paths {
			if p.udsOnly && f.problem != dsd.ProblemUDS {
				continue
			}
			t.Run(f.name+"/"+p.name, func(t *testing.T) {
				s, ts := newTestServer(t, p.cfg)
				got, graph, algo := p.serve(t, s, ts, f)
				want := f.library(t, s, graph, algo)
				if got.density != want.density || !slices.Equal(got.s, want.s) || !slices.Equal(got.t, want.t) {
					t.Fatalf("served density %v S=%v T=%v, library (%s on %s@%d) density %v S=%v T=%v",
						got.density, got.s, got.t, algo, graph, want.version, want.density, want.s, want.t)
				}
				if got.version != want.version {
					t.Fatalf("served version %d, library solved version %d", got.version, want.version)
				}
				if got.flags != p.want {
					t.Fatalf("flags = %+v, want %+v", got.flags, p.want)
				}
			})
		}
	}
}

// solveMutatedLive loads a live copy of the 4-clique graph, grows it into a
// 5-clique, and solves it with algo, checking the answer is at the
// post-mutation version.
func solveMutatedLive(t *testing.T, url string, f pathFamily, algo string) pathAnswer {
	t.Helper()
	info := loadLive(t, url, "lg", cliqueEdges)
	// Join the pendant vertex 4 to the 4-clique: a 5-clique.
	var mres MutateResponse
	batch := MutateRequest{Mutations: []MutationOp{
		{Op: "insert", U: 4, V: 0}, {Op: "insert", U: 4, V: 1}, {Op: "insert", U: 4, V: 2},
	}}
	if got := doJSON(t, "POST", url+"/graphs/lg/edges", batch, &mres); got != http.StatusOK {
		t.Fatalf("mutation = %d, want 200", got)
	}
	if mres.Version <= info.Version {
		t.Fatalf("mutation did not advance the version: %d -> %d", info.Version, mres.Version)
	}
	got := f.mustPost(t, url, SolveRequest{Graph: "lg", Algo: algo})
	if got.version != mres.Version {
		t.Fatalf("solve version = %d, want the post-mutation %d", got.version, mres.Version)
	}
	return got
}

// TestSolveDDSTruncatedNotCached pins the DDS family's one caching
// exception: a budget-truncated answer depends on wall-clock luck, so it
// reports timed_out and is never stored — an identical repeat runs again.
func TestSolveDDSTruncatedNotCached(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	d := dsd.GenerateChungLuDirected(1000, 4000, 2.1, 2.1, 1)
	if _, err := s.Registry().PutDigraph("gen", d, "generated", false); err != nil {
		t.Fatal(err)
	}
	// PBS enumerates O(n²) ratios; a 1ms budget cannot cover them.
	req := SolveRequest{Graph: "gen", Algo: "pbs", Options: SolveOptions{BudgetMs: 1, OmitVertices: true}}
	for _, attempt := range []string{"first", "repeat"} {
		var resp DDSResponse
		if got := doJSON(t, "POST", ts.URL+"/solve/dds", req, &resp); got != http.StatusOK {
			t.Fatalf("%s budgeted pbs solve = %d, want 200", attempt, got)
		}
		if !resp.TimedOut {
			t.Fatalf("%s budgeted pbs solve did not report timed_out", attempt)
		}
		if resp.Cached {
			t.Fatalf("%s budgeted pbs solve came from the cache; truncated answers must not be stored", attempt)
		}
	}
}
