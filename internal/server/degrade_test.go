package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"testing"
	"time"

	"repro"
)

// seedEstimate plants one latency observation so the degradation policy has
// history to consult (the EWMA seeds at the first sample's value).
func seedEstimate(s *Server, graph, wireAlgo string, ms int) {
	s.Metrics().ObserveSolve(graph, "seed", wireAlgo, time.Duration(ms)*time.Millisecond, nil)
}

// TestDegradeDowngradesExact covers the happy degradation path: an exact
// solve predicted to blow its deadline runs the first viable ladder rung
// instead, and the response says so — degraded, what was asked, and what
// guarantee the substitute still carries.
func TestDegradeDowngradesExact(t *testing.T) {
	s, ts := newTestServer(t, Config{DegradePolicy: DegradeAuto})
	seedEstimate(s, "clique", "exact-pruned", 10_000)
	seedEstimate(s, "clique", "greedypp", 1)

	var resp UDSResponse
	req := SolveRequest{Graph: "clique", Algo: "exact-pruned", Options: SolveOptions{TimeoutMs: 1000}}
	if got := doJSON(t, "POST", ts.URL+"/solve/uds", req, &resp); got != http.StatusOK {
		t.Fatalf("degradable solve = %d, want 200", got)
	}
	if !resp.Degraded || resp.DegradedFrom != "exact-pruned" {
		t.Fatalf("degraded/from = %v/%q, want true/\"exact-pruned\"", resp.Degraded, resp.DegradedFrom)
	}
	if want := dsd.DegradationLadder(dsd.ProblemUDS)[0].Guarantee; resp.Guarantee != want {
		t.Fatalf("guarantee = %q, want the first rung's registered bound %q", resp.Guarantee, want)
	}
	if resp.Density != 1.5 {
		t.Fatalf("degraded density = %v, want 1.5 (the approximation is exact on a near-clique)", resp.Density)
	}
	if got := s.Metrics().DegradedSolves.Value(); got != 1 {
		t.Fatalf("degraded_solves = %d, want 1", got)
	}
}

// TestDegradeFallsToFloor walks past a too-slow first rung: with GreedyPP
// also predicted to miss, the request lands on PKMC (no history counts as
// viable — it is the floor, there is nothing cheaper to save for).
func TestDegradeFallsToFloor(t *testing.T) {
	s, ts := newTestServer(t, Config{DegradePolicy: DegradeAuto})
	seedEstimate(s, "clique", "exact-pruned", 10_000)
	seedEstimate(s, "clique", "greedypp", 10_000)

	var resp UDSResponse
	req := SolveRequest{Graph: "clique", Algo: "exact-pruned", Options: SolveOptions{TimeoutMs: 1000}}
	if got := doJSON(t, "POST", ts.URL+"/solve/uds", req, &resp); got != http.StatusOK {
		t.Fatalf("degradable solve = %d, want 200", got)
	}
	if want := dsd.DegradationLadder(dsd.ProblemUDS)[1].Guarantee; !resp.Degraded || resp.Guarantee != want {
		t.Fatalf("degraded/guarantee = %v/%q, want the PKMC floor %q", resp.Degraded, resp.Guarantee, want)
	}
}

// TestDegradeInfeasibleRejects covers the up-front 503: when every rung —
// or an already-approximate request with no rungs at all — is predicted to
// miss the deadline, the server rejects before burning a slot, and the
// estimated cost rides in the body so the client can pick a real deadline.
func TestDegradeInfeasibleRejects(t *testing.T) {
	s, ts := newTestServer(t, Config{DegradePolicy: DegradeAuto})
	seedEstimate(s, "clique", "exact-pruned", 60_000)
	seedEstimate(s, "clique", "greedypp", 50_000)
	seedEstimate(s, "clique", "pkmc", 40_000)

	for _, algo := range []string{"exact-pruned", "pkmc"} {
		body, _ := json.Marshal(SolveRequest{Graph: "clique", Algo: algo, Options: SolveOptions{TimeoutMs: 1000}})
		resp, err := http.Post(ts.URL+"/solve/uds", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || eb.Error.Code != CodeDeadlineInfeasible {
			t.Fatalf("%s: doomed solve = %d %q, want 503 %q", algo, resp.StatusCode, eb.Error.Code, CodeDeadlineInfeasible)
		}
		if eb.Error.EstimatedMs <= 0 {
			t.Fatalf("%s: 503 body estimated_ms = %v, want the predicted cost", algo, eb.Error.EstimatedMs)
		}
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
			t.Fatalf("%s: 503 Retry-After = %q, want a positive integer", algo, resp.Header.Get("Retry-After"))
		}
	}
	// The exact request's 503 reports the cheapest rung's cost, not the
	// asked-for algorithm's: that is the number a client should plan with.
	if got := s.Metrics().DegradedSolves.Value(); got != 0 {
		t.Fatalf("degraded_solves = %d, want 0 (rejections are not degradations)", got)
	}
}

// TestDegradeOffAndNoDeadline pins the two passthrough cases: the default
// policy never degrades regardless of history, and even DegradeAuto leaves
// deadline-less requests alone.
func TestDegradeOffAndNoDeadline(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy string
		opts   SolveOptions
	}{
		{"policy off", DegradeOff, SolveOptions{TimeoutMs: 1000}},
		{"no deadline", DegradeAuto, SolveOptions{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{DegradePolicy: tc.policy})
			seedEstimate(s, "clique", "exact-pruned", 60_000)

			var resp UDSResponse
			req := SolveRequest{Graph: "clique", Algo: "exact-pruned", Options: tc.opts}
			if got := doJSON(t, "POST", ts.URL+"/solve/uds", req, &resp); got != http.StatusOK {
				t.Fatalf("solve = %d, want 200", got)
			}
			if resp.Degraded || resp.DegradedFrom != "" {
				t.Fatalf("response degraded = %v %q, want an undegraded run", resp.Degraded, resp.DegradedFrom)
			}
			if resp.Density != 1.5 {
				t.Fatalf("density = %v, want 1.5", resp.Density)
			}
		})
	}
}

// TestDegradeDDSLadder covers the directed family: an exact DDS solve
// predicted to miss falls to PWC with its guarantee.
func TestDegradeDDSLadder(t *testing.T) {
	s, ts := newTestServer(t, Config{DegradePolicy: DegradeAuto})
	seedEstimate(s, "biclique", "exact-pruned", 10_000)
	seedEstimate(s, "biclique", "pwc", 1)

	var resp DDSResponse
	req := SolveRequest{Graph: "biclique", Algo: "exact-pruned", Options: SolveOptions{TimeoutMs: 1000}}
	if got := doJSON(t, "POST", ts.URL+"/solve/dds", req, &resp); got != http.StatusOK {
		t.Fatalf("degradable DDS solve = %d, want 200", got)
	}
	if want := dsd.DegradationLadder(dsd.ProblemDDS)[0].Guarantee; !resp.Degraded || resp.DegradedFrom != "exact-pruned" || resp.Guarantee != want {
		t.Fatalf("degraded/from/guarantee = %v/%q/%q, want the PWC rung %q", resp.Degraded, resp.DegradedFrom, resp.Guarantee, want)
	}
}

// TestDegradeCacheStaysCanonical pins the cache interplay: a degraded
// request caches under the algorithm it ran, the cached entry itself is
// canonical (a direct requester of the approximation sees no degradation
// flags), and a repeat degraded request re-attaches them per-request.
func TestDegradeCacheStaysCanonical(t *testing.T) {
	s, ts := newTestServer(t, Config{DegradePolicy: DegradeAuto})
	seedEstimate(s, "clique", "exact-pruned", 10_000)
	seedEstimate(s, "clique", "greedypp", 1)

	degraded := SolveRequest{Graph: "clique", Algo: "exact-pruned", Options: SolveOptions{TimeoutMs: 1000}}
	var first UDSResponse
	if got := doJSON(t, "POST", ts.URL+"/solve/uds", degraded, &first); got != http.StatusOK {
		t.Fatalf("first degraded solve = %d, want 200", got)
	}
	if !first.Degraded || first.Cached {
		t.Fatalf("first = degraded %v cached %v, want a fresh degraded run", first.Degraded, first.Cached)
	}

	// A direct greedypp request hits the same cache entry, undecorated.
	direct := SolveRequest{Graph: "clique", Algo: "greedypp", Options: SolveOptions{TimeoutMs: 1000}}
	var second UDSResponse
	if got := doJSON(t, "POST", ts.URL+"/solve/uds", direct, &second); got != http.StatusOK {
		t.Fatalf("direct approximation solve = %d, want 200", got)
	}
	if !second.Cached || second.Degraded || second.DegradedFrom != "" {
		t.Fatalf("direct = cached %v degraded %v %q, want an undecorated cache hit", second.Cached, second.Degraded, second.DegradedFrom)
	}

	// The repeat degraded request also rides the cache — flags restored.
	var third UDSResponse
	if got := doJSON(t, "POST", ts.URL+"/solve/uds", degraded, &third); got != http.StatusOK {
		t.Fatalf("repeat degraded solve = %d, want 200", got)
	}
	if !third.Cached || !third.Degraded || third.DegradedFrom != "exact-pruned" {
		t.Fatalf("repeat = cached %v degraded %v %q, want a degraded-flagged cache hit", third.Cached, third.Degraded, third.DegradedFrom)
	}
	// 2 seed observations + exactly 1 real run; both repeats were hits.
	if got := mapValue(t, &s.Metrics().SolvesByGraph, "clique"); got != 3 {
		t.Fatalf("solves_by_graph[clique] = %d, want 3 (the two repeats must be cache hits)", got)
	}
}
