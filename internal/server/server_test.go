package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
)

// A 4-clique with a pendant vertex: the densest subgraph is the clique,
// density 6/4 = 1.5.
const cliqueEdges = "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n3 4\n"

// A directed 2x2 biclique {0,1} -> {2,3} plus a stray arc.
const bicliqueArcs = "0 2\n0 3\n1 2\n1 3\n4 0\n"

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	if _, err := s.Registry().LoadReader("clique", strings.NewReader(cliqueEdges), false, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().LoadReader("biclique", strings.NewReader(bicliqueArcs), true, false); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// doJSON issues a request and decodes the response body into out (if
// non-nil), returning the status code.
func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if s, ok := body.(string); ok {
		rd = bytes.NewReader([]byte(s))
	} else if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// errCode extracts the structured error code from a failed response body.
func errCode(t *testing.T, body errorBody) string {
	t.Helper()
	return body.Error.Code
}

func TestListAndGetGraphs(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var listing struct {
		Graphs []GraphInfo `json:"graphs"`
	}
	if got := doJSON(t, "GET", ts.URL+"/graphs", nil, &listing); got != http.StatusOK {
		t.Fatalf("GET /graphs = %d, want 200", got)
	}
	if len(listing.Graphs) != 2 {
		t.Fatalf("got %d graphs, want 2", len(listing.Graphs))
	}
	// List is sorted by name.
	if listing.Graphs[0].Name != "biclique" || listing.Graphs[1].Name != "clique" {
		t.Fatalf("unsorted listing: %q, %q", listing.Graphs[0].Name, listing.Graphs[1].Name)
	}

	var info GraphInfo
	if got := doJSON(t, "GET", ts.URL+"/graphs/clique", nil, &info); got != http.StatusOK {
		t.Fatalf("GET /graphs/clique = %d, want 200", got)
	}
	if info.Directed || info.N != 5 || info.M != 7 || info.Version != 1 {
		t.Fatalf("clique info = %+v", info)
	}

	var eb errorBody
	if got := doJSON(t, "GET", ts.URL+"/graphs/nope", nil, &eb); got != http.StatusNotFound {
		t.Fatalf("GET /graphs/nope = %d, want 404", got)
	}
	if errCode(t, eb) != CodeUnknownGraph {
		t.Fatalf("error code = %q, want %q", eb.Error.Code, CodeUnknownGraph)
	}
}

func TestLoadGraph(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var info GraphInfo
	req := LoadRequest{Name: "tri", Edges: "0 1\n1 2\n2 0\n"}
	if got := doJSON(t, "POST", ts.URL+"/graphs", req, &info); got != http.StatusCreated {
		t.Fatalf("POST /graphs = %d, want 201", got)
	}
	if info.N != 3 || info.M != 3 || info.Version != 1 || info.Source != "inline" {
		t.Fatalf("loaded info = %+v", info)
	}

	// Same name again: structured conflict.
	var eb errorBody
	if got := doJSON(t, "POST", ts.URL+"/graphs", req, &eb); got != http.StatusConflict {
		t.Fatalf("duplicate POST /graphs = %d, want 409", got)
	}
	if eb.Error.Code != CodeGraphExists {
		t.Fatalf("error code = %q, want %q", eb.Error.Code, CodeGraphExists)
	}

	// Replace swaps it in under a bumped version.
	req.Replace = true
	req.Edges = "0 1\n1 2\n"
	if got := doJSON(t, "POST", ts.URL+"/graphs", req, &info); got != http.StatusCreated {
		t.Fatalf("replace POST /graphs = %d, want 201", got)
	}
	if info.Version != 2 || info.M != 2 {
		t.Fatalf("replaced info = %+v", info)
	}

	// Validation: missing name, neither/both of path and edges.
	for _, bad := range []LoadRequest{
		{Edges: "0 1\n"},
		{Name: "x"},
		{Name: "x", Path: "/tmp/g", Edges: "0 1\n"},
	} {
		eb = errorBody{}
		if got := doJSON(t, "POST", ts.URL+"/graphs", bad, &eb); got != http.StatusBadRequest {
			t.Fatalf("POST /graphs %+v = %d, want 400", bad, got)
		}
		if eb.Error.Code != CodeBadRequest {
			t.Fatalf("error code = %q, want %q", eb.Error.Code, CodeBadRequest)
		}
	}
}

func TestMalformedJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, url := range []string{"/graphs", "/solve/uds", "/solve/dds"} {
		var eb errorBody
		if got := doJSON(t, "POST", ts.URL+url, `{"graph": "clique",`, &eb); got != http.StatusBadRequest {
			t.Fatalf("POST %s with truncated JSON = %d, want 400", url, got)
		}
		if eb.Error.Code != CodeBadRequest {
			t.Fatalf("POST %s error code = %q, want %q", url, eb.Error.Code, CodeBadRequest)
		}
	}
	// Unknown fields are rejected, not silently dropped.
	var eb errorBody
	if got := doJSON(t, "POST", ts.URL+"/solve/uds", `{"graph":"clique","algorithm":"pkmc"}`, &eb); got != http.StatusBadRequest {
		t.Fatalf("unknown field = %d, want 400", got)
	}
}

func TestDeleteGraph(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req, _ := http.NewRequest("DELETE", ts.URL+"/graphs/clique", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE = %d, want 204", resp.StatusCode)
	}
	var eb errorBody
	if got := doJSON(t, "GET", ts.URL+"/graphs/clique", nil, &eb); got != http.StatusNotFound {
		t.Fatalf("GET after DELETE = %d, want 404", got)
	}
	if got := doJSON(t, "DELETE", ts.URL+"/graphs/clique", nil, &eb); got != http.StatusNotFound {
		t.Fatalf("second DELETE = %d, want 404", got)
	}
}

func TestSolveUDS(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, algo := range []string{"", "pkmc", "charikar", "exact-pruned"} {
		var resp UDSResponse
		req := SolveRequest{Graph: "clique", Algo: algo}
		if got := doJSON(t, "POST", ts.URL+"/solve/uds", req, &resp); got != http.StatusOK {
			t.Fatalf("solve uds algo=%q = %d, want 200", algo, got)
		}
		if resp.Density < 1.5-1e-9 {
			t.Fatalf("algo=%q density = %g, want >= 1.5", algo, resp.Density)
		}
		if resp.Size != len(resp.Vertices) {
			t.Fatalf("algo=%q size %d != |vertices| %d", algo, resp.Size, len(resp.Vertices))
		}
		// "" resolves to the family default before keying, so "pkmc" hits
		// the entry the empty name filled.
		if want := algo == "pkmc"; resp.Cached != want {
			t.Fatalf("algo=%q cached = %v, want %v", algo, resp.Cached, want)
		}
	}

	// omit_vertices drops the array but keeps the size.
	var resp UDSResponse
	req := SolveRequest{Graph: "clique", Options: SolveOptions{OmitVertices: true}}
	doJSON(t, "POST", ts.URL+"/solve/uds", req, &resp)
	if resp.Size == 0 || resp.Vertices != nil {
		t.Fatalf("omit_vertices: size=%d vertices=%v", resp.Size, resp.Vertices)
	}
}

func TestSolveDDS(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, algo := range []string{"", "pwc", "pbs"} {
		var resp DDSResponse
		req := SolveRequest{Graph: "biclique", Algo: algo}
		if got := doJSON(t, "POST", ts.URL+"/solve/dds", req, &resp); got != http.StatusOK {
			t.Fatalf("solve dds algo=%q = %d, want 200", algo, got)
		}
		// The optimum is the 2x2 biclique: 4/sqrt(4) = 2.
		if resp.Density < 2-1e-9 {
			t.Fatalf("algo=%q density = %g, want >= 2", algo, resp.Density)
		}
		if resp.SizeS != len(resp.S) || resp.SizeT != len(resp.T) {
			t.Fatalf("algo=%q sizes (%d,%d) != arrays (%d,%d)",
				algo, resp.SizeS, resp.SizeT, len(resp.S), len(resp.T))
		}
		if want := algo == "pwc"; resp.Cached != want {
			t.Fatalf("algo=%q cached = %v, want %v", algo, resp.Cached, want)
		}
	}
}

func TestSolveErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		url    string
		req    SolveRequest
		status int
		code   string
	}{
		{"/solve/uds", SolveRequest{Graph: "nope"}, http.StatusNotFound, CodeUnknownGraph},
		{"/solve/dds", SolveRequest{Graph: "nope"}, http.StatusNotFound, CodeUnknownGraph},
		{"/solve/uds", SolveRequest{Graph: "clique", Algo: "dijkstra"}, http.StatusBadRequest, CodeUnknownAlgorithm},
		{"/solve/dds", SolveRequest{Graph: "biclique", Algo: "pkmc"}, http.StatusBadRequest, CodeUnknownAlgorithm},
		{"/solve/uds", SolveRequest{Graph: "biclique"}, http.StatusBadRequest, CodeWrongFamily},
		{"/solve/dds", SolveRequest{Graph: "clique"}, http.StatusBadRequest, CodeWrongFamily},
	}
	for _, c := range cases {
		var eb errorBody
		if got := doJSON(t, "POST", ts.URL+c.url, c.req, &eb); got != c.status {
			t.Fatalf("POST %s %+v = %d, want %d", c.url, c.req, got, c.status)
		}
		if eb.Error.Code != c.code {
			t.Fatalf("POST %s %+v code = %q, want %q", c.url, c.req, eb.Error.Code, c.code)
		}
		if eb.Error.Message == "" {
			t.Fatalf("POST %s %+v: empty error message", c.url, c.req)
		}
	}
}

// TestBruteNotServed pins that the subset-enumeration oracle is a test
// helper, not a served solver: on a 20-vertex graph it would panic, so the
// server must refuse the name before any solve and count no panic.
func TestBruteNotServed(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var cycle strings.Builder
	for v := 0; v < 20; v++ {
		fmt.Fprintf(&cycle, "%d %d\n", v, (v+1)%20)
	}
	if _, err := s.Registry().LoadReader("d", strings.NewReader(cycle.String()), true, false); err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	if got := doJSON(t, "POST", ts.URL+"/solve/dds", SolveRequest{Graph: "d", Algo: "brute"}, &eb); got != http.StatusBadRequest {
		t.Fatalf("brute solve = %d, want 400", got)
	}
	if eb.Error.Code != CodeUnknownAlgorithm {
		t.Fatalf("brute solve code = %q, want %q", eb.Error.Code, CodeUnknownAlgorithm)
	}
	if got := s.Metrics().Panics.Value(); got != 0 {
		t.Fatalf("panics metric = %d, want 0", got)
	}
}

func TestCacheHitAndMiss(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := SolveRequest{Graph: "clique", Algo: "pkmc"}

	var first, second UDSResponse
	doJSON(t, "POST", ts.URL+"/solve/uds", req, &first)
	doJSON(t, "POST", ts.URL+"/solve/uds", req, &second)
	if first.Cached || !second.Cached {
		t.Fatalf("cached flags = %t, %t; want false, true", first.Cached, second.Cached)
	}
	if first.Density != second.Density || first.Size != second.Size {
		t.Fatalf("cache returned a different answer: %+v vs %+v", first, second)
	}
	if h, m := s.Cache().Hits(), s.Cache().Misses(); h != 1 || m != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", h, m)
	}

	// Different options are a different key.
	var third UDSResponse
	req.Options.OmitVertices = true
	doJSON(t, "POST", ts.URL+"/solve/uds", req, &third)
	if third.Cached {
		t.Fatal("distinct options hit the cache")
	}

	// Replacing the graph bumps the version and orphans the old entries.
	doJSON(t, "POST", ts.URL+"/graphs",
		LoadRequest{Name: "clique", Edges: cliqueEdges, Replace: true}, &GraphInfo{})
	var fourth UDSResponse
	req.Options.OmitVertices = false
	doJSON(t, "POST", ts.URL+"/solve/uds", req, &fourth)
	if fourth.Cached {
		t.Fatal("stale cache entry served after graph replacement")
	}
	if fourth.Version != 2 {
		t.Fatalf("post-replace version = %d, want 2", fourth.Version)
	}

	// An empty algorithm keys as the family default, in either order: the
	// default request hits the "pkmc" entry, and "pwc" hits the default's.
	var byDefault UDSResponse
	doJSON(t, "POST", ts.URL+"/solve/uds", SolveRequest{Graph: "clique"}, &byDefault)
	if !byDefault.Cached {
		t.Fatal(`algo "" missed the entry "pkmc" filled`)
	}
	var ddsDefault, ddsNamed DDSResponse
	doJSON(t, "POST", ts.URL+"/solve/dds", SolveRequest{Graph: "biclique"}, &ddsDefault)
	doJSON(t, "POST", ts.URL+"/solve/dds", SolveRequest{Graph: "biclique", Algo: "pwc"}, &ddsNamed)
	if ddsDefault.Cached || !ddsNamed.Cached {
		t.Fatalf(`dds cached flags for "" then "pwc" = %t, %t; want false, true`, ddsDefault.Cached, ddsNamed.Cached)
	}

	// The counters surface on /debug/vars.
	var vars struct {
		Dsdserver struct {
			CacheHits   int64 `json:"cache_hits"`
			CacheMisses int64 `json:"cache_misses"`
			Requests    map[string]int64
		} `json:"dsdserver"`
	}
	doJSON(t, "GET", ts.URL+"/debug/vars", nil, &vars)
	if vars.Dsdserver.CacheHits != s.Cache().Hits() || vars.Dsdserver.CacheMisses != s.Cache().Misses() {
		t.Fatalf("/debug/vars cache counters %d/%d disagree with server %d/%d",
			vars.Dsdserver.CacheHits, vars.Dsdserver.CacheMisses, s.Cache().Hits(), s.Cache().Misses())
	}
}

func TestSolveDeadlineExceeded(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// Hold each admitted solve until its 1ms deadline is safely gone, so the
	// solver's first cancellation check fires regardless of machine speed.
	// The gate toggles off via an atomic rather than reassigning s.solveGate:
	// abandoned flights keep detached leaders running past their waiters'
	// 504s, and those leaders still read the gate field.
	var gateOn atomic.Bool
	gateOn.Store(true)
	s.solveGate = func() {
		if gateOn.Load() {
			time.Sleep(20 * time.Millisecond)
		}
	}

	var eb errorBody
	req := SolveRequest{Graph: "clique", Algo: "exact-pruned", Options: SolveOptions{TimeoutMs: 1}}
	if got := doJSON(t, "POST", ts.URL+"/solve/uds", req, &eb); got != http.StatusGatewayTimeout {
		t.Fatalf("expired solve = %d, want 504", got)
	}
	if eb.Error.Code != CodeDeadlineExceeded {
		t.Fatalf("error code = %q, want %q", eb.Error.Code, CodeDeadlineExceeded)
	}

	// Same for the directed family.
	eb = errorBody{}
	dreq := SolveRequest{Graph: "biclique", Algo: "exact-pruned", Options: SolveOptions{TimeoutMs: 1}}
	if got := doJSON(t, "POST", ts.URL+"/solve/dds", dreq, &eb); got != http.StatusGatewayTimeout {
		t.Fatalf("expired dds solve = %d, want 504", got)
	}
	if eb.Error.Code != CodeDeadlineExceeded {
		t.Fatalf("dds error code = %q, want %q", eb.Error.Code, CodeDeadlineExceeded)
	}

	// Failed solves are not cached: with the gate disabled the same request
	// must run for real and succeed.
	gateOn.Store(false)
	var ok UDSResponse
	req.Options.TimeoutMs = 0
	if got := doJSON(t, "POST", ts.URL+"/solve/uds", req, &ok); got != http.StatusOK {
		t.Fatalf("retry after timeout = %d, want 200", got)
	}
	if ok.Cached {
		t.Fatal("timed-out attempt polluted the cache")
	}
}

func TestServerDefaultTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{DefaultTimeout: time.Millisecond})
	s.solveGate = func() { time.Sleep(20 * time.Millisecond) }
	var eb errorBody
	req := SolveRequest{Graph: "clique", Algo: "exact-pruned"}
	if got := doJSON(t, "POST", ts.URL+"/solve/uds", req, &eb); got != http.StatusGatewayTimeout {
		t.Fatalf("default-timeout solve = %d, want 504", got)
	}
}

func TestOverloaded(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1})
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

	// The slot is held; a second request with a short client deadline must
	// be rejected as overloaded rather than queue forever.
	body, _ := json.Marshal(SolveRequest{Graph: "clique", Algo: "pkmc"})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	hr, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/solve/uds", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(hr)
	if err == nil {
		defer resp.Body.Close()
		var eb errorBody
		json.NewDecoder(resp.Body).Decode(&eb)
		if resp.StatusCode != http.StatusServiceUnavailable || eb.Error.Code != CodeOverloaded {
			t.Fatalf("queued request = %d %q, want 503 %q", resp.StatusCode, eb.Error.Code, CodeOverloaded)
		}
	}
	// err != nil is also acceptable: the client may hang up before the
	// 503 is written, which is precisely the cancellation being tested.
}

func TestGracefulShutdown(t *testing.T) {
	s := New(Config{})
	if _, err := s.Registry().LoadReader("clique", strings.NewReader(cliqueEdges), false, false); err != nil {
		t.Fatal(err)
	}
	admitted := make(chan struct{})
	release := make(chan struct{})
	s.solveGate = func() { close(admitted); <-release }

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()

	// Start a solve that blocks inside the handler.
	type result struct {
		status int
		resp   UDSResponse
	}
	done := make(chan result, 1)
	go func() {
		var r result
		r.status = doJSON(t, "POST", fmt.Sprintf("http://%s/solve/uds", ln.Addr()),
			SolveRequest{Graph: "clique", Algo: "pkmc"}, &r.resp)
		done <- r
	}()
	<-admitted

	// Shutdown must wait for the in-flight solve, not kill it.
	shutdown := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdown <- hs.Shutdown(ctx)
	}()
	// Give Shutdown a moment to stop the listener, then let the solve finish.
	time.Sleep(50 * time.Millisecond)
	close(release)

	r := <-done
	if r.status != http.StatusOK {
		t.Fatalf("in-flight solve during shutdown = %d, want 200", r.status)
	}
	if r.resp.Density < 1.5-1e-9 {
		t.Fatalf("in-flight solve density = %g, want >= 1.5", r.resp.Density)
	}
	if err := <-shutdown; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("Serve: %v, want ErrServerClosed", err)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", resp.StatusCode)
	}
}

func TestPutGeneratedGraphs(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	g := dsd.GenerateChungLu(500, 2000, 2.1, 1)
	if _, err := s.Registry().PutGraph("gen", g, "generated", false); err != nil {
		t.Fatal(err)
	}
	var resp UDSResponse
	req := SolveRequest{Graph: "gen", Algo: "pkmc", Options: SolveOptions{OmitVertices: true}}
	if got := doJSON(t, "POST", ts.URL+"/solve/uds", req, &resp); got != http.StatusOK {
		t.Fatalf("solve on generated graph = %d, want 200", got)
	}
	if resp.Density <= 0 {
		t.Fatalf("density = %g, want > 0", resp.Density)
	}
}
