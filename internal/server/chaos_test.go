package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/faultinject"
	"repro/internal/live"
	"repro/internal/parallel"
)

// logBuffer collects the standard logger's output; the log package and
// stray goroutines may write while the test reads.
type logBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// captureLog routes the standard logger into a buffer until the test ends.
func captureLog(t *testing.T) *logBuffer {
	buf := &logBuffer{}
	prev := log.Writer()
	log.SetOutput(buf)
	t.Cleanup(func() { log.SetOutput(prev) })
	return buf
}

// TestChaosInjectedSolvePanics is the headline containment test: with a
// 1-in-N panic armed inside the parallel workers, a burst of concurrent
// solves must yield only clean 200s and structured 500 internal errors —
// never a dropped connection or a dead process — and the server must keep
// serving afterwards. Each contained panic is logged with the solve's
// identity.
func TestChaosInjectedSolvePanics(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	t.Cleanup(faultinject.Reset)
	logs := captureLog(t)

	// Every 4th chunk hit panics, at most 6 times total: enough firings
	// that some requests certainly die, a cap so most certainly survive.
	faultinject.Arm(faultinject.SiteParallelForChunk, faultinject.Fault{
		Mode:  faultinject.ModePanic,
		Every: 4,
		Count: 6,
	})

	const burst = 32
	type outcome struct {
		status int
		code   string
	}
	results := make(chan outcome, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct worker counts make distinct cache keys, so every
			// request runs the solver instead of riding the first answer.
			req := SolveRequest{Graph: "clique", Options: SolveOptions{Workers: 2 + i}}
			body, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+"/solve/uds", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("request %d: transport error (server crashed?): %v", i, err)
				results <- outcome{status: -1}
				return
			}
			defer resp.Body.Close()
			var eb errorBody
			json.NewDecoder(resp.Body).Decode(&eb)
			results <- outcome{status: resp.StatusCode, code: eb.Error.Code}
		}(i)
	}
	wg.Wait()
	close(results)

	var ok200, failed int
	for r := range results {
		switch r.status {
		case http.StatusOK:
			ok200++
		case http.StatusInternalServerError:
			failed++
			if r.code != CodeInternal {
				t.Errorf("500 with code %q, want %q", r.code, CodeInternal)
			}
		default:
			t.Errorf("unexpected status %d (code %q)", r.status, r.code)
		}
	}
	if failed == 0 {
		t.Fatalf("no request hit an injected panic (fired=%d)", faultinject.Fired(faultinject.SiteParallelForChunk))
	}
	if ok200 == 0 {
		t.Fatal("every request failed; the firing cap should have spared most")
	}
	if got := s.Metrics().Panics.Value(); got < int64(failed) {
		t.Fatalf("panics metric = %d, want >= %d", got, failed)
	}
	if want := "solver panic (contained) in clique@1 uds/pkmc:"; !strings.Contains(logs.String(), want) {
		t.Fatalf("panic log lacks the solve's identity %q:\n%s", want, logs.String())
	}

	// The process survived; a clean request still works.
	faultinject.Reset()
	var resp UDSResponse
	if got := doJSON(t, "POST", ts.URL+"/solve/uds", SolveRequest{Graph: "clique"}, &resp); got != http.StatusOK {
		t.Fatalf("post-chaos solve = %d, want 200", got)
	}
	if resp.Density != 1.5 {
		t.Fatalf("post-chaos density = %v, want 1.5", resp.Density)
	}
}

// TestChaosRegistryLoadErrors verifies load atomicity under injected
// failures: a load that dies mid-flight is never observable in GET /graphs
// and its name is immediately reusable once the fault clears.
func TestChaosRegistryLoadErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	t.Cleanup(faultinject.Reset)

	faultinject.Arm(faultinject.SiteRegistryLoad, faultinject.Fault{
		Mode:  faultinject.ModeError,
		Every: 1,
	})

	const loaders = 8
	var wg sync.WaitGroup
	for i := 0; i < loaders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var eb errorBody
			req := LoadRequest{Name: fmt.Sprintf("chaos%d", i), Edges: "0 1\n1 2\n2 0\n"}
			if got := doJSON(t, "POST", ts.URL+"/graphs", req, &eb); got != http.StatusBadRequest {
				t.Errorf("injected-failure load %d = %d, want 400", i, got)
			}
		}(i)
	}
	wg.Wait()

	// No partial graph leaked into the listing.
	var listing struct {
		Graphs []GraphInfo `json:"graphs"`
	}
	doJSON(t, "GET", ts.URL+"/graphs", nil, &listing)
	for _, g := range listing.Graphs {
		if g.Name != "clique" && g.Name != "biclique" {
			t.Fatalf("failed load leaked graph %q into the registry", g.Name)
		}
	}

	// Names are reusable the moment the fault clears.
	faultinject.Reset()
	for i := 0; i < loaders; i++ {
		var info GraphInfo
		req := LoadRequest{Name: fmt.Sprintf("chaos%d", i), Edges: "0 1\n1 2\n2 0\n"}
		if got := doJSON(t, "POST", ts.URL+"/graphs", req, &info); got != http.StatusCreated {
			t.Fatalf("post-chaos reload %d = %d, want 201", i, got)
		}
		if info.Version != 1 {
			t.Fatalf("reused name version = %d, want 1 (failed loads must not burn versions)", info.Version)
		}
	}
}

// TestChaosConcurrentSameNameLoad stretches the load window with an
// injected delay so two loads of one name genuinely overlap: exactly one
// wins, the loser gets a structured 409 instead of racing at publish.
func TestChaosConcurrentSameNameLoad(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	t.Cleanup(faultinject.Reset)

	faultinject.Arm(faultinject.SiteRegistryLoad, faultinject.Fault{
		Mode:  faultinject.ModeDelay,
		Every: 1,
		Delay: 100 * time.Millisecond,
	})

	type outcome struct {
		status int
		code   string
	}
	results := make(chan outcome, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(LoadRequest{Name: "dup", Edges: "0 1\n1 2\n2 0\n"})
			resp, err := http.Post(ts.URL+"/graphs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("load: %v", err)
				results <- outcome{status: -1}
				return
			}
			defer resp.Body.Close()
			var eb errorBody
			json.NewDecoder(resp.Body).Decode(&eb)
			results <- outcome{status: resp.StatusCode, code: eb.Error.Code}
		}()
	}
	wg.Wait()
	close(results)

	var won, lost int
	for r := range results {
		switch r.status {
		case http.StatusCreated:
			won++
		case http.StatusConflict:
			lost++
			if r.code != CodeGraphBusy && r.code != CodeGraphExists {
				t.Errorf("409 with code %q, want graph_busy or graph_exists", r.code)
			}
		default:
			t.Errorf("unexpected status %d (code %q)", r.status, r.code)
		}
	}
	if won != 1 || lost != 1 {
		t.Fatalf("won=%d lost=%d, want exactly one of each", won, lost)
	}

	// The winner's graph is resident and solvable.
	var info GraphInfo
	if got := doJSON(t, "GET", ts.URL+"/graphs/dup", nil, &info); got != http.StatusOK {
		t.Fatalf("GET /graphs/dup = %d, want 200", got)
	}
}

// TestReadyz covers the readiness gate: a StartUnready server is live but
// not ready until MarkReady, matching a background startup load.
func TestReadyz(t *testing.T) {
	s, ts := newTestServer(t, Config{StartUnready: true})

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("unready /healthz = %d, want 200 (liveness is unconditional)", got)
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("unready /readyz = %d, want 503", got)
	}
	if s.Ready() {
		t.Fatal("Ready() = true before MarkReady")
	}
	s.MarkReady()
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("ready /readyz = %d, want 200", got)
	}
}

// TestQueueWaitExpires covers the server-side admission bound: with the
// only slot held and a short MaxQueueWait, a queued request is shed as 503
// overloaded with a Retry-After header instead of waiting on its client.
func TestQueueWaitExpires(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueueWait: 60 * time.Millisecond})
	admitted := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.solveGate = func() {
		once.Do(func() { close(admitted); <-release })
	}
	defer close(release)

	go func() {
		var resp UDSResponse
		doJSON(t, "POST", ts.URL+"/solve/uds", SolveRequest{Graph: "clique", Algo: "exact-pruned"}, &resp)
	}()
	<-admitted

	body, _ := json.Marshal(SolveRequest{Graph: "clique", Algo: "pkmc"})
	resp, err := http.Post(ts.URL+"/solve/uds", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb errorBody
	json.NewDecoder(resp.Body).Decode(&eb)
	if resp.StatusCode != http.StatusServiceUnavailable || eb.Error.Code != CodeOverloaded {
		t.Fatalf("queued request = %d %q, want 503 %q", resp.StatusCode, eb.Error.Code, CodeOverloaded)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 overloaded without a Retry-After header")
	}
}

// TestChaosProbeRegistryCoverage proves the fault-injection registry and
// the chaos suite cannot drift apart: every probe name returned by
// faultinject.Sites() is armed (with a harmless zero-delay fault, so hit
// counting is enabled) and then exercised by a representative operation.
// A probe added to the registry without a driver here — or a call site
// whose constant stops matching its registered name — fails this test.
// The converse direction (every call site uses a registered constant) is
// proven statically by the registry analyzer under `make lint`.
func TestChaosProbeRegistryCoverage(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	sites := faultinject.Sites()
	if len(sites) == 0 {
		t.Fatal("faultinject.Sites() is empty")
	}
	for _, site := range sites {
		faultinject.Arm(site, faultinject.Fault{Mode: faultinject.ModeDelay})
	}

	// parallel.for.chunk and parallel.workers: the runtime probes every
	// chunk and worker body.
	parallel.ForGrain(4096, 2, 64, func(int) {})
	parallel.Workers(2, func(int) {})

	// graph.io.text and registry.load: a registry load parses a text edge
	// list, and the registry probes each load before parsing.
	r := NewRegistry()
	if _, err := r.LoadReader("cov", strings.NewReader("0 1\n1 2\n2 0\n"), false, false); err != nil {
		t.Fatalf("LoadReader: %v", err)
	}

	// graph.io.header and graph.io.edges: a binary round-trip through the
	// public API.
	g := dsd.NewGraph(3, []dsd.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	if _, err := dsd.ReadGraphBinary(&buf); err != nil {
		t.Fatalf("ReadGraphBinary: %v", err)
	}

	// live.apply and live.publish: one structural mutation batch on a live
	// graph walks both probes — apply at the batch head, publish on the
	// version bump.
	le, err := r.PutLive("livecov", g, "test", false, live.Config{})
	if err != nil {
		t.Fatalf("PutLive: %v", err)
	}
	defer le.Live.Close()
	res, err := le.Live.Enqueue(context.Background(), []live.Mutation{{Op: live.OpInsert, U: 0, V: 2}})
	if err != nil {
		t.Fatalf("live mutation: %v", err)
	}
	if res.Version <= le.Version {
		t.Fatalf("coverage mutation did not publish: %+v", res)
	}

	// server.quota.clock and server.flight.leader: one untraced solve
	// through a quota-enforcing server walks both — the quota probe inside
	// tenant admission, the flight probe in the coalesced leader just
	// before the solver call.
	s, ts := newTestServer(t, Config{Quota: QuotaConfig{Rate: 1000, MaxConcurrent: 64}})
	var uresp UDSResponse
	if got := doJSON(t, "POST", ts.URL+"/solve/uds", SolveRequest{Graph: "clique"}, &uresp); got != http.StatusOK {
		t.Fatalf("coverage solve = %d, want 200", got)
	}

	// server.snapshot.write and server.snapshot.load: a warm-restart
	// manifest round-trip through a scratch state directory.
	dir := t.TempDir()
	if _, err := s.WriteSnapshot(dir); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if _, err := s.RestoreSnapshot(dir); err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}

	for _, site := range sites {
		if faultinject.Hits(site) == 0 {
			t.Errorf("registered probe %s was never exercised by the chaos suite", site)
		}
	}
}

// TestChaosCoalescedLeaderPanic proves a panic in a coalesced flight's
// leader poisons only that flight: every rider gets a structured 500 (not a
// dropped connection), the panic counter moves exactly once, and the next
// identical request starts a fresh flight that succeeds. The panic is
// logged with the solve's identity.
func TestChaosCoalescedLeaderPanic(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	t.Cleanup(faultinject.Reset)
	logs := captureLog(t)

	faultinject.Arm(faultinject.SiteFlightLeader, faultinject.Fault{
		Mode:  faultinject.ModePanic,
		Every: 1,
		Count: 1,
	})

	// The gate holds the one leader inside its flight until every rider has
	// joined; the probe fires after the gate, so the panic detonates with a
	// full complement of waiters attached.
	admitted := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.solveGate = func() {
		once.Do(func() { close(admitted); <-release })
	}

	const burst = 8
	key := cacheKey("clique", 1, "uds", "pkmc", SolveOptions{})
	type outcome struct {
		status int
		code   string
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
				t.Errorf("transport error (server crashed?): %v", err)
				results <- outcome{status: -1}
				return
			}
			defer resp.Body.Close()
			var eb errorBody
			json.NewDecoder(resp.Body).Decode(&eb)
			results <- outcome{status: resp.StatusCode, code: eb.Error.Code}
		}()
	}
	<-admitted
	for deadline := time.Now().Add(5 * time.Second); s.flights.waiting(key) < burst; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests joined the flight", s.flights.waiting(key), burst)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(results)

	for r := range results {
		if r.status != http.StatusInternalServerError || r.code != CodeInternal {
			t.Errorf("rider got %d %q, want 500 %q", r.status, r.code, CodeInternal)
		}
	}
	if got := s.Metrics().Panics.Value(); got != 1 {
		t.Fatalf("panics metric = %d, want 1 (one poisoned flight, not one per rider)", got)
	}
	if want := "leader panic (contained) in clique@1 uds/pkmc:"; !strings.Contains(logs.String(), want) {
		t.Fatalf("leader panic log lacks the solve's identity %q:\n%s", want, logs.String())
	}

	// The poisoned flight is gone; an identical request leads a fresh one.
	s.solveGate = nil
	var resp UDSResponse
	if got := doJSON(t, "POST", ts.URL+"/solve/uds", SolveRequest{Graph: "clique"}, &resp); got != http.StatusOK {
		t.Fatalf("post-panic solve = %d, want 200", got)
	}
	if resp.Density != 1.5 || resp.Coalesced {
		t.Fatalf("post-panic solve = density %v coalesced %v, want 1.5 fresh", resp.Density, resp.Coalesced)
	}
}
