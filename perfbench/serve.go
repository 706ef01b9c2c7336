package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro"
	"repro/internal/server"
)

// serveSpec holds one serving workload's fixed constants.
type serveSpec struct {
	// rate is the open-loop Poisson arrival rate (jobs per second), fixed
	// between a tenth and a sixth of the closed-loop capacity measured on
	// a 2-core machine (README.md says why not higher).
	rate float64
	// sloMs is the latency limit behind slo_share.
	sloMs float64
	// maxLagMs is the validity gate on loadgen.lag_ms_p99: a run whose
	// generator sent later than this is not a measurement of the server.
	maxLagMs float64
}

const (
	// servingSamples seeded edge samples of every serving model are loaded
	// as graphs of their own ("pt0" .. "pt7"), and every job class rotates
	// through them. One 95% sample of PT or EW can take half again as long
	// as another to solve with PKMC; with a single sample per model that
	// one draw set op_ms_p90 for the whole run and moved it by 20% between
	// seeds.
	servingSamples = 8
	// servingRounds: an untraced run alternates this many times between a
	// closed-loop capacity slice and an open-loop slice. The host's speed
	// drifts by 5-10% over tens of seconds, for every solver alike;
	// spreading both measurements over the whole run averages more of that
	// drift than one block of each.
	servingRounds = 5
	// capacityShare of --seconds goes to the capacity slices, the rest to
	// the open loop.
	capacityShare = 1.0 / 3
	// warmJobs jobs, twice the default cache size, run in an untimed closed
	// loop before the first capacity slice, so the cache holds its hot set
	// when timing starts. Started cold, the first half second ran at half
	// the later rate.
	warmJobs = 512
	// sliceWindows: each capacity slice is cut into this many equal
	// windows, and ops_per_s is the median of the completion rates of all
	// of them, so a stall of the shared host in one window does not move
	// it.
	sliceWindows = 4
	// minSentShare is the validity gate on the share of scheduled jobs the
	// generator actually sent.
	minSentShare = 0.95
	// maxBehind stops a dispatcher that has fallen this far behind its
	// schedule; what it drops counts against minSentShare.
	maxBehind = time.Second
	// connsPerCore caps the client's connections at this many per core.
	// Open-loop users do not wait for each other. With only nproc
	// connections, requests queued behind slow solves for a free
	// connection. That queue doubled the spread of op_ms_p90 between
	// runs, and the second request of a coalescing pair often went out
	// only after the first had finished.
	connsPerCore = 4
)

// serverInst is one in-process server with its client.
type serverInst struct {
	srv      *server.Server
	ts       *httptest.Server
	handlers *handlerTable // traced instances only
	client   *loadClient
	live     []string
}

// startServer builds a server with the default configuration (plus phase
// tracing on a traced instance), loads its graphs and starts listening.
func startServer(c *runCtx, traced bool, load func(*server.Server) error) (*serverInst, error) {
	srv := server.New(server.Config{TracePhases: traced})
	inst := &serverInst{srv: srv}
	err := load(srv)
	for _, e := range srv.Registry().List() {
		if e.Live != nil {
			inst.live = append(inst.live, e.Name)
		}
	}
	if err != nil {
		inst.removeLive()
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if traced {
		inst.handlers = newHandlerTable()
		h = inst.handlers.wrap(h)
	}
	inst.ts = httptest.NewServer(h)
	inst.client = newLoadClient(inst.ts.URL, connsPerCore*c.nproc)
	return inst, nil
}

// close stops the listener after in-flight requests finish and stops the
// live graphs' writer goroutines.
func (s *serverInst) close() {
	s.client.close()
	s.ts.Close()
	s.removeLive()
}

func (s *serverInst) removeLive() {
	for _, name := range s.live {
		s.srv.Registry().Remove(name)
	}
}

// servingCase is what differs between the two serving workloads.
type servingCase struct {
	spec serveSpec
	// fileBytes is the total size of the input files setup decodes.
	fileBytes int64
	// setup starts a server with the workload's graphs, returning the time
	// spent decoding graph files.
	setup func(traced bool) (*serverInst, time.Duration, error)
	// warm is sent once to each server kept for measuring, after set-up
	// is timed: its handful of first requests pay goroutine wake-ups that
	// moved set-up time by 70% between otherwise equal runs.
	warm []request
	// newGen returns a fresh job generator; every call yields the same
	// job sequence.
	newGen func() func() job
	// after runs the workload's end-of-run answer checks on one instance.
	after func(inst *serverInst, recs []*reqRecord, o *outcome) error
	// layers reports the workload-specific per-layer metrics.
	layers func(o *outcome, recs []*reqRecord, ht *handlerTable)
}

func runServing(c *runCtx, sc servingCase) (*outcome, error) {
	o := newOutcome()
	var kept []*serverInst
	defer func() {
		for _, inst := range kept {
			inst.close()
		}
	}()
	// A traced run keeps the last two setups: an untraced server to time
	// the schedule without tracing, then the traced one.
	keep := 1
	if c.traced {
		keep = 2
	}
	var setupS, decodeS []float64
	for rep := range setupReps {
		traced := c.traced && rep == setupReps-1
		runtime.GC()
		start := time.Now()
		inst, dec, err := sc.setup(traced)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		decodeS = append(decodeS, dec.Seconds())
		if rep < setupReps-keep {
			inst.close()
			continue
		}
		kept = append(kept, inst)
	}
	for _, inst := range kept {
		for _, r := range sc.warm {
			if rec := inst.client.do(r, time.Time{}); !rec.ok() {
				return nil, fmt.Errorf("warm-up %s: status %d: %v", r.path, rec.status, rec.err)
			}
		}
	}

	if !c.traced {
		o.values["setup_s"] = median(setupS)
		o.notef("set-ups (s): %.4f", setupS)
		o.values["resident_mb"] = residentMB()
		inst := kept[0]
		gen := sc.newGen()
		arrivals := newRNG(c.seed, streamArrivals)
		capD := seconds(c.seconds * capacityShare / servingRounds)
		openD := seconds(c.seconds * (1 - capacityShare) / servingRounds)
		warmRecs := inst.client.closedLoop(c.nproc, capD*servingRounds, warmJobs, gen)
		var capRecs, openRecs []*reqRecord
		var rates []float64
		var scheduled, unsent int
		for range servingRounds {
			start := time.Now()
			recs := inst.client.closedLoop(c.nproc, capD, 0, gen)
			rates = append(rates, windowRates(recs, start, capD)...)
			capRecs = append(capRecs, recs...)
			sched := poissonSchedule(arrivals, sc.spec.rate, openD, gen)
			recs, n := inst.client.openLoop(sched, maxBehind)
			openRecs = append(openRecs, recs...)
			scheduled, unsent = scheduled+len(sched), unsent+n
		}
		all := slices.Concat(warmRecs, capRecs, openRecs)
		tally(c, o, all)
		if err := sc.after(inst, all, o); err != nil {
			return nil, err
		}
		gate(o, sc.spec, openRecs, unsent, scheduled)
		o.values["ops_per_s"] = median(rates)
		reportLatency(o, sc.spec, openRecs)
		o.notef("capacity slices: %d requests from %d callers in %d x %.1f s (%.1f/s overall), after %d warm-up requests",
			len(capRecs), c.nproc, servingRounds, capD.Seconds(), float64(countOK(capRecs))/(capD*servingRounds).Seconds(), len(warmRecs))
		o.notef("open loop: %d jobs scheduled at %.0f/s over %d x %.1f s, %d requests, slo limit %.0f ms",
			scheduled, sc.spec.rate, servingRounds, openD.Seconds(), len(openRecs), sc.spec.sloMs)
		return o, nil
	}

	base, traced := kept[0], kept[1]
	sched := poissonSchedule(newRNG(c.seed, streamArrivals), sc.spec.rate, seconds(c.seconds/2), sc.newGen())
	baseRecs, unsentBase := base.client.openLoop(sched, maxBehind)
	before, err := traced.client.debugVars()
	if err != nil {
		return nil, err
	}
	tracedRecs, unsentTraced := traced.client.openLoop(sched, maxBehind)
	after, err := traced.client.debugVars()
	if err != nil {
		return nil, err
	}
	tally(c, o, append(slices.Clone(baseRecs), tracedRecs...))
	for _, run := range []struct {
		inst *serverInst
		recs []*reqRecord
	}{{base, baseRecs}, {traced, tracedRecs}} {
		if err := sc.after(run.inst, run.recs, o); err != nil {
			return nil, err
		}
	}
	gate(o, sc.spec, baseRecs, unsentBase, len(sched))
	gate(o, sc.spec, tracedRecs, unsentTraced, len(sched))
	serverLayers(c, o, tracedRecs, traced.handlers, after.sub(before))
	sc.layers(o, tracedRecs, traced.handlers)
	o.values["trace.overhead_share"] = ratio(median(latencies(tracedRecs)), median(latencies(baseRecs))) - 1
	dms := median(decodeS) * 1000
	o.values["graph.decode_ms"] = dms
	o.values["graph.decode_mb_per_s"] = ratio(float64(sc.fileBytes)/(1<<20), dms/1000)
	o.notef("one %d-job schedule at %.0f/s replayed on an untraced and a traced server (%d and %d requests)",
		len(sched), sc.spec.rate, len(baseRecs), len(tracedRecs))
	return o, nil
}

// tally counts requests, failures and wrong answers into o.
func tally(c *runCtx, o *outcome, recs []*reqRecord) {
	logged := 0
	for _, r := range recs {
		o.attempted++
		if !r.ok() {
			o.failed++
			if logged < 5 {
				logged++
				fmt.Fprintf(c.log, "perfbench: %s request failed: status %d err %v\n", r.class, r.status, r.err)
			}
		}
		if r.wrong != "" {
			o.wrongf("%s", r.wrong)
		}
	}
}

// gate marks the run invalid when the generator, not the server, set the
// pace: it sent too late or dropped too much of its schedule.
func gate(o *outcome, spec serveSpec, recs []*reqRecord, unsent, scheduled int) {
	lag, _ := percentile(lags(recs), 99)
	sent := ratio(float64(scheduled-unsent), float64(scheduled))
	switch {
	case lag > spec.maxLagMs:
		o.invalid = fmt.Sprintf("load generator lag p99 %.1f ms exceeds %.0f ms", lag, spec.maxLagMs)
	case sent < minSentShare:
		o.invalid = fmt.Sprintf("load generator sent %.1f%% of its schedule, below %.0f%%", 100*sent, 100*minSentShare)
	}
}

func countOK(recs []*reqRecord) int {
	n := 0
	for _, r := range recs {
		if r.ok() {
			n++
		}
	}
	return n
}

// windowRates cuts [start, start+d) into sliceWindows equal windows and
// returns the successful completions per second of each.
func windowRates(recs []*reqRecord, start time.Time, d time.Duration) []float64 {
	width := d / sliceWindows
	rates := make([]float64, sliceWindows)
	for _, r := range recs {
		if i := int(r.done.Sub(start) / width); r.ok() && i < sliceWindows {
			rates[i] += 1 / width.Seconds()
		}
	}
	return rates
}

// latencies returns the latencies of the successful requests.
func latencies(recs []*reqRecord) []float64 {
	var out []float64
	for _, r := range recs {
		if r.ok() {
			out = append(out, r.latencyMs())
		}
	}
	return out
}

func lags(recs []*reqRecord) []float64 {
	out := make([]float64, 0, len(recs))
	for _, r := range recs {
		if !r.sent.IsZero() {
			out = append(out, r.lagMs())
		}
	}
	return out
}

func reportLatency(o *outcome, spec serveSpec, recs []*reqRecord) {
	lat := latencies(recs)
	p90, ok := percentile(lat, 90)
	if !ok {
		o.notef("op_ms_p90 has fewer than %d requests beyond it (%d requests)", minBeyond, len(lat))
	}
	if p, v, ok := tailPercentile(lat); ok {
		o.notef("highest supported latency percentile: p%g = %.2f ms over %d requests", p, v, len(lat))
	}
	var deciles []string
	for p := 10; p <= 90; p += 10 {
		v, _ := percentile(lat, float64(p))
		deciles = append(deciles, fmt.Sprintf("%.1f", v))
	}
	o.notef("latency deciles p10..p90 (ms): %s", strings.Join(deciles, " "))
	within := 0
	for _, r := range recs {
		if r.ok() && r.latencyMs() <= spec.sloMs {
			within++
		}
	}
	o.values["op_ms_p50"] = median(lat)
	o.values["op_ms_p90"] = p90
	o.values["slo_share"] = ratio(float64(within), float64(len(recs)))
	lag, _ := percentile(lags(recs), 99)
	o.notef("load generator lag p99 %.2f ms", lag)
}

// serverLayers reports the per-layer metrics common to both serving
// workloads from the traced half: handler spans from the benchmark's
// middleware, client spans, and /debug/vars deltas. It also records the
// request spans.
func serverLayers(c *runCtx, o *outcome, recs []*reqRecord, ht *handlerTable, dv debugVars) {
	var hit, miss, overhead, bytes []float64
	var handlerSolveMs float64
	solves := 0
	for _, r := range recs {
		hs, ok := ht.get(r.id)
		id := c.rec.add(0, "http", "http.client "+r.class, r.sent, r.done.Sub(r.sent),
			map[string]any{"status": r.status, "bytes": r.bytes, "cached": r.cached, "coalesced": r.coalesced})
		c.rec.add(id, "loadgen", "loadgen.wait", r.due, r.sent.Sub(r.due), nil)
		if !ok || !r.ok() {
			continue
		}
		c.rec.add(id, "server", "server.handler "+hs.route, hs.start, hs.dur, map[string]any{"status": hs.status})
		ms := durMs(hs.dur)
		bytes = append(bytes, float64(r.bytes))
		overhead = append(overhead, durMs(r.done.Sub(r.sent))-ms)
		if r.solve {
			solves++
			handlerSolveMs += ms
			switch {
			case r.cached:
				hit = append(hit, ms)
			case !r.coalesced:
				miss = append(miss, ms)
			}
		}
	}
	o.values["server.hit_ms_p50"] = median(hit)
	o.values["server.miss_ms_p50"] = median(miss)
	o.values["server.resp_bytes_mean"] = mean(bytes)
	o.values["server.cache_hit_share"] = ratio(float64(dv.CacheHits), float64(dv.CacheHits+dv.CacheMisses))
	o.values["server.coalesced_share"] = ratio(float64(dv.CoalescedSolves), float64(solves))
	o.values["http.overhead_ms_p50"] = median(overhead)
	lag, _ := percentile(lags(recs), 99)
	o.values["loadgen.lag_ms_p99"] = lag

	// Phase sums arrive keyed "Algorithm/phase"; "total" is the whole
	// solve, the rest its traced stages.
	var total, staged, nSolves float64
	for k, ms := range dv.PhaseMsSum {
		if strings.HasSuffix(k, "/total") {
			total += ms
		} else {
			staged += ms
		}
	}
	for _, n := range dv.SolvesByAlgo {
		nSolves += n
	}
	perSolve := func(key, algo string) float64 { return ratio(dv.PhaseMsSum[algo+"/"+key], dv.SolvesByAlgo[algo]) }
	o.values["server.solver_share"] = ratio(total, handlerSolveMs)
	o.values["dsd.self_ms"] = ratio(total-staged, nSolves)
	o.values["core.decomp_ms"] = perSolve("core-decomposition", "PKMC")
	o.values["core.density_ms"] = perSolve("density-evaluation", "PKMC")
	o.values["dds.wstar_ms"] = perSolve("wstar-decomposition", "PWC")
	o.values["dds.cnpair_ms"] = perSolve("cnpair-search", "PWC")
	o.values["dds.extract_ms"] = perSolve("core-extraction", "PWC")
	// Sweep counts, candidate sizes, parallel-runtime counters and PWC
	// level counts exist only on per-solve traces, which the server does
	// not export; the library workloads report them.
	for _, name := range []string{"core.sweeps", "core.peak_candidates", "parallel.items_per_edge",
		"parallel.chunks_per_pass", "parallel.speedup", "dds.levels", "dds.warm_start_arc_share"} {
		o.values[name] = 0
	}
	o.notef("traced half: %d solve requests (%d hits, %d fresh misses)", solves, len(hit), len(miss))
}

// handlerMs returns the handler durations of the successful requests of
// one class that pass keep.
func handlerMs(recs []*reqRecord, ht *handlerTable, class string, keep func(*reqRecord) bool) []float64 {
	var out []float64
	for _, r := range recs {
		if r.class != class || !r.ok() || (keep != nil && !keep(r)) {
			continue
		}
		if hs, ok := ht.get(r.id); ok {
			out = append(out, durMs(hs.dur))
		}
	}
	return out
}

// servedGraph is one input file of a serving workload: sample k of a
// model, served under the name sampleName(model, k).
type servedGraph struct {
	name, abbr string
	path       string
	directed   bool
}

func sampleName(abbr string, k int) string { return fmt.Sprintf("%s%d", strings.ToLower(abbr), k) }

// writeServingInputs writes servingSamples seeded 95% edge samples of each
// model, model by model.
func writeServingInputs(c *runCtx, models []model) ([]servedGraph, int64, error) {
	r := newRNG(c.seed, streamSamples)
	var out []servedGraph
	var total int64
	for _, m := range models {
		g, d, err := dsd.BuildDataset(m.abbr, m.scale)
		if err != nil {
			return nil, 0, err
		}
		for k := range servingSamples {
			sub := r.int63()
			sg := servedGraph{name: sampleName(m.abbr, k), abbr: m.abbr, directed: d != nil,
				path: filepath.Join(c.workDir, fmt.Sprintf("%s-%d.dsdg", m.abbr, k))}
			var n int64
			if d != nil {
				n, err = writeFile(sg.path, d.SampleEdges(sampleFrac, sub).WriteBinary)
			} else {
				n, err = writeFile(sg.path, g.SampleEdges(sampleFrac, sub).WriteBinary)
			}
			if err != nil {
				return nil, 0, err
			}
			out = append(out, sg)
			total += n
		}
	}
	return out, total, nil
}

// udsCheck validates a /solve/uds or densest response against the
// library's answer.
func udsCheck(ref answer, what string, wantVertices bool) func(*reqRecord, []byte) string {
	return func(rec *reqRecord, body []byte) string {
		var resp server.UDSResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return what + ": undecodable response: " + err.Error()
		}
		rec.cached, rec.coalesced, rec.solve, rec.version = resp.Cached, resp.Coalesced, true, resp.Version
		if !closeTo(resp.Density, ref.density) || resp.Size != len(ref.s) {
			return fmt.Sprintf("%s: served density %v size %d, library %v size %d (cached=%v coalesced=%v)",
				what, resp.Density, resp.Size, ref.density, len(ref.s), resp.Cached, resp.Coalesced)
		}
		if wantVertices && !slices.Equal(sortedInts(resp.Vertices), ref.s) {
			return fmt.Sprintf("%s: served vertex set differs from the library's (cached=%v coalesced=%v)",
				what, resp.Cached, resp.Coalesced)
		}
		return ""
	}
}

// ddsCheck is udsCheck for /solve/dds.
func ddsCheck(ref answer, what string, wantVertices bool) func(*reqRecord, []byte) string {
	return func(rec *reqRecord, body []byte) string {
		var resp server.DDSResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return what + ": undecodable response: " + err.Error()
		}
		rec.cached, rec.coalesced, rec.solve, rec.version = resp.Cached, resp.Coalesced, true, resp.Version
		if !closeTo(resp.Density, ref.density) || resp.SizeS != len(ref.s) || resp.SizeT != len(ref.t) {
			return fmt.Sprintf("%s: served density %v sizes %d/%d, library %v sizes %d/%d",
				what, resp.Density, resp.SizeS, resp.SizeT, ref.density, len(ref.s), len(ref.t))
		}
		if wantVertices && (!slices.Equal(sortedInts(resp.S), ref.s) || !slices.Equal(sortedInts(resp.T), ref.t)) {
			return what + ": served S/T differ from the library's"
		}
		return ""
	}
}

func sortedInts(v []int32) []int32 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

func solveRequest(family, graph, algo string, opts map[string]any, check func(*reqRecord, []byte) string, class string) request {
	return request{
		class: class, graph: graph, method: http.MethodPost, path: "/solve/" + family,
		body:  mustJSON(map[string]any{"graph": graph, "algo": algo, "options": opts}),
		check: check,
	}
}

// sortRecs orders records by a time key.
func sortRecs(recs []*reqRecord, key func(*reqRecord) time.Time) []*reqRecord {
	out := slices.Clone(recs)
	sort.Slice(out, func(i, j int) bool { return key(out[i]).Before(key(out[j])) })
	return out
}
