package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"
)

// waitForWaiters polls until the keyed flight has n attached waiters
// (leader included) or the deadline passes.
func waitForWaiters(t *testing.T, s *Server, key string, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); s.flights.waiting(key) < n; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests joined flight %q", s.flights.waiting(key), n, key)
		}
		time.Sleep(time.Millisecond)
	}
}

// mapValue reads an expvar.Map counter as an int64 (0 when absent).
func mapValue(t *testing.T, m interface{ String() string }, key string) int64 {
	t.Helper()
	var vals map[string]int64
	if err := json.Unmarshal([]byte(m.String()), &vals); err != nil {
		t.Fatalf("decoding expvar map: %v", err)
	}
	return vals[key]
}

// TestCoalesceBurstSingleSolve is the headline coalescing test: a burst of
// identical concurrent solves runs the solver exactly once — one leader, a
// shared answer for every rider — with the sharing visible in both the
// response flag and the coalesced_solves counter.
func TestCoalesceBurstSingleSolve(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 4})

	// Hold the leader inside its flight until every rider has joined, so
	// the burst genuinely overlaps instead of racing the first answer into
	// the cache.
	admitted := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.solveGate = func() {
		once.Do(func() { close(admitted); <-release })
	}

	const burst = 64
	key := cacheKey("clique", 1, "uds", "pkmc", SolveOptions{})
	type outcome struct {
		status    int
		coalesced bool
		cached    bool
		density   float64
	}
	results := make(chan outcome, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(SolveRequest{Graph: "clique"})
			resp, err := http.Post(ts.URL+"/solve/uds", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("solve: %v", err)
				results <- outcome{status: -1}
				return
			}
			defer resp.Body.Close()
			var ur UDSResponse
			json.NewDecoder(resp.Body).Decode(&ur)
			results <- outcome{status: resp.StatusCode, coalesced: ur.Coalesced, cached: ur.Cached, density: ur.Density}
		}()
	}
	<-admitted
	waitForWaiters(t, s, key, burst)
	close(release)
	wg.Wait()
	close(results)

	var leaders, riders int
	for r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("burst request = %d, want 200", r.status)
		}
		if r.density != 1.5 {
			t.Fatalf("burst density = %v, want 1.5", r.density)
		}
		if r.cached {
			t.Fatal("burst request served from cache; the gate should have held the only fill")
		}
		if r.coalesced {
			riders++
		} else {
			leaders++
		}
	}
	if leaders != 1 || riders != burst-1 {
		t.Fatalf("leaders=%d riders=%d, want 1 and %d", leaders, riders, burst-1)
	}
	if got := mapValue(t, &s.Metrics().SolvesByGraph, "clique"); got != 1 {
		t.Fatalf("solves_by_graph[clique] = %d, want exactly 1 solver run for the whole burst", got)
	}
	if got := s.Metrics().CoalescedSolves.Value(); got != int64(burst-1) {
		t.Fatalf("coalesced_solves = %d, want %d", got, burst-1)
	}

	// The one solve landed in the cache once; a follow-up is a plain hit.
	var resp UDSResponse
	if got := doJSON(t, "POST", ts.URL+"/solve/uds", SolveRequest{Graph: "clique"}, &resp); got != http.StatusOK {
		t.Fatalf("follow-up solve = %d, want 200", got)
	}
	if !resp.Cached || resp.Coalesced {
		t.Fatalf("follow-up = cached %v coalesced %v, want a plain cache hit", resp.Cached, resp.Coalesced)
	}
}

// TestCoalesceDistinctKeysDoNotShare confirms the coalescing key honors the
// solve options: two requests differing only in workers run two solves.
func TestCoalesceDistinctKeysDoNotShare(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	for _, workers := range []int{2, 3} {
		var resp UDSResponse
		req := SolveRequest{Graph: "clique", Options: SolveOptions{Workers: workers}}
		if got := doJSON(t, "POST", ts.URL+"/solve/uds", req, &resp); got != http.StatusOK {
			t.Fatalf("workers=%d solve = %d, want 200", workers, got)
		}
		if resp.Cached || resp.Coalesced {
			t.Fatalf("workers=%d solve = cached %v coalesced %v, want a fresh run", workers, resp.Cached, resp.Coalesced)
		}
	}
	if got := mapValue(t, &s.Metrics().SolvesByGraph, "clique"); got != 2 {
		t.Fatalf("solves_by_graph[clique] = %d, want 2", got)
	}
}

// TestCoalesceWaiterDeadline pins the per-waiter deadline semantics: a rider
// whose own deadline expires mid-flight gets a structured 504 immediately,
// while the shared solve keeps running for the riders still attached and
// delivers their answer.
func TestCoalesceWaiterDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	admitted := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.solveGate = func() {
		once.Do(func() { close(admitted); <-release })
	}

	key := cacheKey("clique", 1, "uds", "pkmc", SolveOptions{})

	// The leader has no deadline of its own.
	patient := make(chan UDSResponse, 1)
	go func() {
		var resp UDSResponse
		if got := doJSON(t, "POST", ts.URL+"/solve/uds", SolveRequest{Graph: "clique"}, &resp); got != http.StatusOK {
			t.Errorf("patient request = %d, want 200", got)
		}
		patient <- resp
	}()
	<-admitted
	waitForWaiters(t, s, key, 1)

	// The impatient rider shares the leader's key — timeout_ms is not part
	// of it — but burns out while the gate holds the flight.
	body, _ := json.Marshal(SolveRequest{Graph: "clique", Options: SolveOptions{TimeoutMs: 30}})
	resp, err := http.Post(ts.URL+"/solve/uds", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb errorBody
	json.NewDecoder(resp.Body).Decode(&eb)
	if resp.StatusCode != http.StatusGatewayTimeout || eb.Error.Code != CodeDeadlineExceeded {
		t.Fatalf("impatient rider = %d %q, want 504 %q", resp.StatusCode, eb.Error.Code, CodeDeadlineExceeded)
	}

	// Its departure must not have killed the flight: the patient request
	// still gets the real answer from the same solve.
	close(release)
	got := <-patient
	if got.Density != 1.5 {
		t.Fatalf("patient density = %v, want 1.5", got.Density)
	}
	if got := mapValue(t, &s.Metrics().SolvesByGraph, "clique"); got != 1 {
		t.Fatalf("solves_by_graph[clique] = %d, want 1 (the rider's timeout must not restart the solve)", got)
	}
}

// TestCoalesceLastWaiterCancels pins the other half of the detach contract:
// when the last waiter gives up, the flight is canceled rather than left
// solving for nobody, and the next identical request leads a fresh flight.
func TestCoalesceLastWaiterCancels(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	admitted := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.solveGate = func() {
		once.Do(func() { close(admitted); <-release })
	}

	body, _ := json.Marshal(SolveRequest{Graph: "clique", Options: SolveOptions{TimeoutMs: 30}})
	resp, err := http.Post(ts.URL+"/solve/uds", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("sole waiter = %d, want 504", resp.StatusCode)
	}
	<-admitted
	close(release)

	// The abandoned flight drains (its context is canceled, so the solver
	// exits without caching); the key must come free again.
	key := cacheKey("clique", 1, "uds", "pkmc", SolveOptions{})
	for deadline := time.Now().Add(5 * time.Second); s.flights.waiting(key) != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("abandoned flight still has %d waiters", s.flights.waiting(key))
		}
		time.Sleep(time.Millisecond)
	}

	s.solveGate = nil
	var ur UDSResponse
	if got := doJSON(t, "POST", ts.URL+"/solve/uds", SolveRequest{Graph: "clique"}, &ur); got != http.StatusOK {
		t.Fatalf("post-abandon solve = %d, want 200", got)
	}
	if ur.Density != 1.5 {
		t.Fatalf("post-abandon density = %v, want 1.5", ur.Density)
	}
}

// TestCoalesceTracedBypasses confirms a traced request never rides a
// flight: traces are per-run artifacts, so options.trace runs its own solve
// even when an identical untraced flight is available to join.
func TestCoalesceTracedBypasses(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	var resp UDSResponse
	req := SolveRequest{Graph: "clique", Options: SolveOptions{Trace: true}}
	if got := doJSON(t, "POST", ts.URL+"/solve/uds", req, &resp); got != http.StatusOK {
		t.Fatalf("traced solve = %d, want 200", got)
	}
	if resp.Coalesced {
		t.Fatal("traced solve reported coalesced")
	}
	if resp.Trace == nil {
		t.Fatal("traced solve returned no trace")
	}
	if got := s.Metrics().CoalescedSolves.Value(); got != 0 {
		t.Fatalf("coalesced_solves = %d, want 0", got)
	}
}
