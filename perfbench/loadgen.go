package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// request is one HTTP call the generator makes. check validates a 2xx
// response body and records what it says; it returns a description of a
// wrong answer, or "".
type request struct {
	class        string
	graph        string // the registry graph the request reads or writes
	method, path string
	body         []byte
	check        func(rec *reqRecord, body []byte) string
}

// job is one arrival: a single request, or several identical ones sent
// at the same instant (the coalescing class).
type job struct {
	reqs []request
}

// reqRecord is everything observed about one request.
type reqRecord struct {
	id    int64
	class string
	graph string
	due   time.Time // open loop only: when the schedule said to send
	sent  time.Time
	done  time.Time
	// status is the HTTP status, 0 when the call itself failed.
	status int
	bytes  int
	err    error
	wrong  string

	// Facts read from the response body by check.
	cached, coalesced, solve bool
	version                  int64
	changed                  bool // a mutation batch that changed the graph
	edges, touched           int
	recomputed, compacted    bool
}

func (r *reqRecord) ok() bool { return r.err == nil && r.status >= 200 && r.status < 300 }

// latencyMs is measured from the due time in an open loop, so a stall
// also charges the requests that queued behind it, and from the send
// time in a closed loop.
func (r *reqRecord) latencyMs() float64 {
	from := r.sent
	if !r.due.IsZero() {
		from = r.due
	}
	return durMs(r.done.Sub(from))
}

// lagMs is how late the generator sent an open-loop request.
func (r *reqRecord) lagMs() float64 { return durMs(r.sent.Sub(r.due)) }

// loadClient sends the generated requests over a bounded connection pool.
type loadClient struct {
	base string
	hc   *http.Client
	ids  atomic.Int64
}

func newLoadClient(base string, conns int) *loadClient {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &loadClient{base: base, hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

func (c *loadClient) close() { c.hc.CloseIdleConnections() }

func (c *loadClient) do(r request, due time.Time) *reqRecord {
	rec := &reqRecord{id: c.ids.Add(1), class: r.class, graph: r.graph, due: due}
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, c.base+r.path, body)
	if err != nil {
		rec.err = err
		return rec
	}
	req.Header.Set(requestIDHeader, strconv.FormatInt(rec.id, 10))
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec.sent = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		rec.done, rec.err = time.Now(), err
		return rec
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.done = time.Now()
	rec.status, rec.bytes, rec.err = resp.StatusCode, len(b), err
	if rec.ok() && r.check != nil {
		rec.wrong = r.check(rec, b)
	}
	return rec
}

// runJob sends a job's requests at once and waits for all of them.
func (c *loadClient) runJob(j job, due time.Time) []*reqRecord {
	recs := make([]*reqRecord, len(j.reqs))
	if len(j.reqs) == 1 {
		recs[0] = c.do(j.reqs[0], due)
		return recs
	}
	var wg sync.WaitGroup
	for i, r := range j.reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[i] = c.do(r, due)
		}()
	}
	wg.Wait()
	return recs
}

// closedLoop runs the given number of callers, each sending its next job
// as soon as its previous one completes, until d has elapsed or, when
// limit > 0, limit jobs have been dealt. It returns every record once the
// last reply is in.
func (c *loadClient) closedLoop(callers int, d time.Duration, limit int, next func() job) []*reqRecord {
	var (
		mu    sync.Mutex
		all   []*reqRecord
		wg    sync.WaitGroup
		jobs  sync.Mutex // next is not safe for concurrent use
		dealt int
	)
	end := time.Now().Add(d)
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				jobs.Lock()
				if limit > 0 && dealt == limit {
					jobs.Unlock()
					return
				}
				dealt++
				j := next()
				jobs.Unlock()
				recs := c.runJob(j, time.Time{})
				mu.Lock()
				all = append(all, recs...)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return all
}

// arrival is one scheduled job of an open loop.
type arrival struct {
	at  time.Duration // offset from the start of the loop
	job job
}

// poissonSchedule draws Poisson arrivals at rate per second over d from r,
// each carrying the generator's next job.
func poissonSchedule(r *rng, rate float64, d time.Duration, next func() job) []arrival {
	var out []arrival
	for t := r.exp(rate); t < d.Seconds(); t += r.exp(rate) {
		out = append(out, arrival{at: seconds(t), job: next()})
	}
	return out
}

// openLoop sends every scheduled job at its due time, regardless of how
// many are still in flight, and waits for all replies. A dispatcher more
// than maxBehind late stops sending; unsent counts the jobs it dropped.
func (c *loadClient) openLoop(sched []arrival, maxBehind time.Duration) (recs []*reqRecord, unsent int) {
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	start := time.Now()
	for i, a := range sched {
		due := start.Add(a.at)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		if time.Since(due) > maxBehind {
			unsent = len(sched) - i
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs := c.runJob(a.job, due)
			mu.Lock()
			recs = append(recs, rs...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return recs, unsent
}

// debugVars is the part of the server's /debug/vars the benchmark reads.
type debugVars struct {
	CacheHits       int64              `json:"cache_hits"`
	CacheMisses     int64              `json:"cache_misses"`
	CoalescedSolves int64              `json:"coalesced_solves"`
	PhaseMsSum      map[string]float64 `json:"phase_ms_sum"`
	SolvesByAlgo    map[string]float64 `json:"solves_by_algo"`
}

func (c *loadClient) debugVars() (debugVars, error) {
	var doc struct {
		Server debugVars `json:"dsdserver"`
	}
	resp, err := c.hc.Get(c.base + "/debug/vars")
	if err != nil {
		return debugVars{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return debugVars{}, fmt.Errorf("GET /debug/vars: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return debugVars{}, fmt.Errorf("decoding /debug/vars: %w", err)
	}
	return doc.Server, nil
}

// sub returns the counter deltas d - before.
func (d debugVars) sub(before debugVars) debugVars {
	subMap := func(a, b map[string]float64) map[string]float64 {
		out := map[string]float64{}
		for k, v := range a {
			out[k] = v - b[k]
		}
		return out
	}
	return debugVars{
		CacheHits:       d.CacheHits - before.CacheHits,
		CacheMisses:     d.CacheMisses - before.CacheMisses,
		CoalescedSolves: d.CoalescedSolves - before.CoalescedSolves,
		PhaseMsSum:      subMap(d.PhaseMsSum, before.PhaseMsSum),
		SolvesByAlgo:    subMap(d.SolvesByAlgo, before.SolvesByAlgo),
	}
}

// mustJSON encodes a request body built from the benchmark's own values.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only benchmark-built maps and structs reach here
	}
	return b
}
