package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro"
)

// model is one catalog dataset at one scale.
type model struct {
	abbr  string
	scale float64
}

// libSpec is one closed-loop library workload: a single caller solves
// every model of the rotation in turn, cycling through samplesPerModel
// seeded edge samples of each.
type libSpec struct {
	directed bool
	models   []model
	algo     dsd.Algo
	sloMs    float64 // latency limit of one pass
}

const (
	// samplesPerModel independent 95% edge samples of each model are solved
	// in rotation, so one run averages over several inputs per model and a
	// single unlucky sample does not move the run's median.
	samplesPerModel = 4
	sampleFrac      = 0.95
	setupReps       = 7 // setup_s is the median of this many setups
	warmPasses      = 2 // untimed passes over every sample before measuring
)

// The scales keep one pass under 100 ms on a 2-core machine, so a
// 30-second run measures well over 100 passes and p90 has at least ten
// beyond it.
var (
	udsSolveSpec = libSpec{
		models: []model{{"EU", 0.25}, {"IT", 0.25}, {"SK", 0.25}, {"UN", 0.25}},
		algo:   dsd.AlgoPKMC,
		sloMs:  300,
	}
	// AM and BA finish in two w-core levels, DL in a handful, and WE at
	// this scale in about fifty, so both ends of PWC's peel are exercised.
	ddsSolveSpec = libSpec{
		directed: true,
		models:   []model{{"AM", 0.5}, {"BA", 0.5}, {"DL", 0.5}, {"WE", 0.1}},
		algo:     dsd.AlgoPWC,
		sloMs:    300,
	}
)

func runUDSSolve(c *runCtx) (*outcome, error) { return runLib(c, udsSolveSpec) }
func runDDSSolve(c *runCtx) (*outcome, error) { return runLib(c, ddsSolveSpec) }

// libGraph is one decoded input graph; exactly one of g and d is set.
type libGraph struct {
	name string
	g    *dsd.Graph
	d    *dsd.Digraph
	m    int64
}

// answer is a solve result with its vertex sets sorted for comparison.
type answer struct {
	density float64
	s, t    []int32
}

func (lg *libGraph) solve(algo dsd.Algo, workers int, tr *dsd.Trace) (answer, error) {
	opts := dsd.Options{Workers: workers, Trace: tr}
	if lg.d != nil {
		r, err := dsd.SolveDDS(lg.d, algo, opts)
		return answer{density: r.Density, s: r.S, t: r.T}, err
	}
	r, err := dsd.SolveUDS(lg.g, algo, opts)
	return answer{density: r.Density, s: r.Vertices}, err
}

// sorted returns the answer with sorted copies of its sets.
func (a answer) sorted() answer {
	a.s = slices.Clone(a.s)
	slices.Sort(a.s)
	if a.t != nil {
		a.t = slices.Clone(a.t)
		slices.Sort(a.t)
	}
	return a
}

// sameAnswer reports whether two sorted answers name the same sets with
// the same density.
func sameAnswer(a, b answer) bool {
	return slices.Equal(a.s, b.s) && slices.Equal(a.t, b.t) && closeTo(a.density, b.density)
}

func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}

// libRun is the state of one library-workload run.
type libRun struct {
	c    *runCtx
	spec libSpec
	sets [][]*libGraph // [sample][model]
	refs [][]answer    // sorted reference answers, same shape
	o    *outcome

	// Traced-pass accumulators.
	solves, tracedPasses int
	phaseMs              map[string]float64
	selfMs, sweeps, peak float64
	items, chunks, edges float64
	levels, warmShare    float64
}

func runLib(c *runCtx, spec libSpec) (*outcome, error) {
	o := newOutcome()
	paths, fileBytes, err := writeLibInputs(c, spec)
	if err != nil {
		return nil, err
	}
	r := &libRun{c: c, spec: spec, o: o, phaseMs: map[string]float64{}}
	var setupS, decodeS []float64
	for range setupReps {
		r.sets = nil
		runtime.GC()
		start := time.Now()
		sets, dec, err := decodeLibInputs(c, paths, spec.directed)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		decodeS = append(decodeS, dec.Seconds())
		r.sets = sets
	}
	resident := residentMB()
	if err := r.computeReferences(); err != nil {
		return nil, err
	}
	for i := range warmPasses * samplesPerModel {
		r.pass(i%samplesPerModel, c.nproc, false)
	}
	o.attempted, o.failed = 0, 0 // warm-up answers are checked but not counted

	if !c.traced {
		o.values["setup_s"] = median(setupS)
		o.values["resident_mb"] = resident
		passMs, failed := r.loop(seconds(c.seconds), c.nproc, false)
		r.reportE2E(passMs, failed)
		return o, nil
	}
	untraced, _ := r.loop(seconds(c.seconds/2), c.nproc, false)
	traced, _ := r.loop(seconds(c.seconds/2), c.nproc, true)
	var p1, pn float64
	for k := range samplesPerModel {
		ms, _ := r.pass(k, 1, false)
		p1 += ms
		ms, _ = r.pass(k, c.nproc, false)
		pn += ms
	}
	r.reportLayers(untraced, traced, ratio(p1, pn))
	dms := median(decodeS) * 1000
	o.values["graph.decode_ms"] = dms
	o.values["graph.decode_mb_per_s"] = ratio(float64(fileBytes)/(1<<20), dms/1000)
	o.fillLayers("server.", "http.", "live.", "loadgen.")
	return o, nil
}

// writeLibInputs builds each model, draws samplesPerModel seeded edge
// samples of it and writes them in the binary format. It returns the file
// paths indexed [sample][model] and their total size.
func writeLibInputs(c *runCtx, spec libSpec) ([][]string, int64, error) {
	r := newRNG(c.seed, streamSamples)
	paths := make([][]string, samplesPerModel)
	var total int64
	for _, m := range spec.models {
		g, d, err := dsd.BuildDataset(m.abbr, m.scale)
		if err != nil {
			return nil, 0, err
		}
		for k := range samplesPerModel {
			sub := r.int63()
			path := filepath.Join(c.workDir, fmt.Sprintf("%s-%d.dsdg", m.abbr, k))
			write := func(w io.Writer) error { return g.SampleEdges(sampleFrac, sub).WriteBinary(w) }
			if d != nil {
				write = func(w io.Writer) error { return d.SampleEdges(sampleFrac, sub).WriteBinary(w) }
			}
			n, err := writeFile(path, write)
			if err != nil {
				return nil, 0, err
			}
			total += n
			paths[k] = append(paths[k], path)
		}
	}
	return paths, total, nil
}

// writeFile writes path through a buffer and returns its size.
func writeFile(path string, write func(io.Writer) error) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		f.Close()
		return 0, fmt.Errorf("writing %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return 0, fmt.Errorf("writing %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, err
	}
	return st.Size(), f.Close()
}

// decodeLibInputs reads every input file back through the library's
// binary decoder and returns the graphs with the total decode time.
func decodeLibInputs(c *runCtx, paths [][]string, directed bool) ([][]*libGraph, time.Duration, error) {
	sets := make([][]*libGraph, len(paths))
	var total time.Duration
	for k, row := range paths {
		for _, path := range row {
			start := time.Now()
			lg, err := decodeFile(path, directed)
			if err != nil {
				return nil, 0, err
			}
			dur := time.Since(start)
			total += dur
			c.rec.add(0, "graph", "graph.decode", start, dur, map[string]any{"file": filepath.Base(path), "edges": lg.m})
			sets[k] = append(sets[k], lg)
		}
	}
	return sets, total, nil
}

func decodeFile(path string, directed bool) (*libGraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	lg := &libGraph{name: filepath.Base(path)}
	if directed {
		lg.d, err = dsd.ReadDigraphBinary(br)
		if err == nil {
			lg.m = lg.d.M()
		}
	} else {
		lg.g, err = dsd.ReadGraphBinary(br)
		if err == nil {
			lg.m = lg.g.M()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return lg, nil
}

// computeReferences fixes the answer every measured solve must match: for
// UDS the serial BZ k*-core, for DDS the same algorithm on one worker
// (the answer must not depend on the worker count).
func (r *libRun) computeReferences() error {
	r.refs = make([][]answer, len(r.sets))
	for k, row := range r.sets {
		for _, lg := range row {
			algo, workers := dsd.AlgoBZ, 1
			if r.spec.directed {
				algo = r.spec.algo
			}
			a, err := lg.solve(algo, workers, nil)
			if err != nil {
				return fmt.Errorf("reference solve of %s: %w", lg.name, err)
			}
			r.refs[k] = append(r.refs[k], a.sorted())
		}
	}
	return nil
}

// check validates one measured answer: the reported density must be the
// density of the returned sets, and the sets must equal the reference.
func (r *libRun) check(k, mi int, a answer) {
	lg := r.sets[k][mi]
	var recomputed float64
	if lg.d != nil {
		recomputed = lg.d.Density(a.s, a.t)
	} else {
		recomputed = lg.g.SubgraphDensity(a.s)
	}
	if !closeTo(a.density, recomputed) {
		r.o.wrongf("%s: reported density %v but the returned sets have density %v", lg.name, a.density, recomputed)
	}
	if s := a.sorted(); !sameAnswer(s, r.refs[k][mi]) {
		r.o.wrongf("%s: answer (|S|=%d |T|=%d density %v) differs from the reference (|S|=%d |T|=%d density %v)",
			lg.name, len(s.s), len(s.t), s.density, len(r.refs[k][mi].s), len(r.refs[k][mi].t), r.refs[k][mi].density)
	}
}

// pass solves every model of sample set k once and returns the summed
// solve time; ok is false when a solve failed.
func (r *libRun) pass(k, workers int, traced bool) (ms float64, ok bool) {
	ok = true
	for mi, lg := range r.sets[k] {
		var tr *dsd.Trace
		if traced {
			tr = &dsd.Trace{}
		}
		start := time.Now()
		a, err := lg.solve(r.spec.algo, workers, tr)
		dur := time.Since(start)
		r.o.attempted++
		if err != nil {
			r.o.failed++
			ok = false
			fmt.Fprintf(r.c.log, "perfbench: solve of %s failed: %v\n", lg.name, err)
			continue
		}
		ms += durMs(dur)
		r.check(k, mi, a)
		if traced {
			r.observe(lg, start, dur, tr)
		}
	}
	if traced {
		r.tracedPasses++
	}
	return ms, ok
}

// loop runs passes for d, cycling through the sample sets, and returns
// the times of the passes that completed and the number that failed.
func (r *libRun) loop(d time.Duration, workers int, traced bool) (passMs []float64, failed int) {
	end := time.Now().Add(d)
	for i := 0; time.Now().Before(end); i++ {
		ms, ok := r.pass(i%samplesPerModel, workers, traced)
		if !ok {
			failed++
			continue
		}
		passMs = append(passMs, ms)
	}
	return passMs, failed
}

// observe folds one traced solve into the per-layer accumulators and
// records its spans: the solve itself at the dsd layer, and each solver
// phase as a child laid end to end from the solve's start (the trace keeps
// phase durations, not their start times).
func (r *libRun) observe(lg *libGraph, start time.Time, dur time.Duration, tr *dsd.Trace) {
	rec := r.c.rec
	id := rec.add(0, "dsd", "dsd.solve", start, dur,
		map[string]any{"graph": lg.name, "algo": string(r.spec.algo), "edges": lg.m})
	layer := "core"
	if r.spec.directed {
		layer = "dds"
	}
	at := start
	var phases time.Duration
	for _, ph := range tr.Phases {
		if ph.Name == "total" {
			continue
		}
		pd := time.Duration(ph.Seconds * float64(time.Second))
		rec.add(id, layer, ph.Name, at, pd, nil)
		at = at.Add(pd)
		phases += pd
		r.phaseMs[ph.Name] += durMs(pd)
	}
	r.solves++
	r.selfMs += durMs(dur - phases)
	r.sweeps += float64(len(tr.Iterations))
	r.peak += float64(tr.PeakCandidates)
	r.items += float64(tr.Parallel.Items)
	r.chunks += float64(tr.Parallel.Chunks)
	r.edges += float64(lg.m)
	if r.spec.directed {
		r.levels += float64(tr.Counters["levels"])
		r.warmShare += ratio(float64(tr.Counters["arcs_after_warm_start"]), float64(tr.Counters["arcs_input"]))
	}
}

func (r *libRun) reportE2E(passMs []float64, failed int) {
	o := r.o
	p90, ok := percentile(passMs, 90)
	if !ok {
		o.notef("op_ms_p90 has fewer than %d passes beyond it (%d passes)", minBeyond, len(passMs))
	}
	var within int
	var total float64
	for _, ms := range passMs {
		total += ms
		if ms <= r.spec.sloMs {
			within++
		}
	}
	o.values["op_ms_p50"] = median(passMs)
	o.values["op_ms_p90"] = p90
	o.values["ops_per_s"] = ratio(float64(len(passMs)), total/1000)
	o.values["slo_share"] = ratio(float64(within), float64(len(passMs)+failed))
	o.notef("%d passes of %d solves (%s); op = one pass; slo limit %.0f ms",
		len(passMs), len(r.spec.models), r.spec.algo, r.spec.sloMs)
}

func (r *libRun) reportLayers(untraced, traced []float64, speedup float64) {
	o, n := r.o, float64(r.solves)
	core := !r.spec.directed
	perSolve := func(v float64, on bool) float64 {
		if !on {
			return 0
		}
		return ratio(v, n)
	}
	o.values["core.decomp_ms"] = perSolve(r.phaseMs["core-decomposition"], core)
	o.values["core.density_ms"] = perSolve(r.phaseMs["density-evaluation"], core)
	o.values["core.sweeps"] = perSolve(r.sweeps, core)
	o.values["core.peak_candidates"] = perSolve(r.peak, core)
	o.values["dds.wstar_ms"] = perSolve(r.phaseMs["wstar-decomposition"], !core)
	o.values["dds.cnpair_ms"] = perSolve(r.phaseMs["cnpair-search"], !core)
	o.values["dds.extract_ms"] = perSolve(r.phaseMs["core-extraction"], !core)
	o.values["dds.levels"] = perSolve(r.levels, !core)
	o.values["dds.warm_start_arc_share"] = perSolve(r.warmShare, !core)
	o.values["parallel.items_per_edge"] = ratio(r.items, r.edges)
	o.values["parallel.chunks_per_pass"] = ratio(r.chunks, float64(r.tracedPasses))
	o.values["parallel.speedup"] = speedup
	o.values["dsd.self_ms"] = ratio(r.selfMs, n)
	o.values["trace.overhead_share"] = ratio(median(traced), median(untraced)) - 1
	o.notef("traced %d passes (%d solves) after %d untraced; speedup is p=1 over p=%d on one pass per sample",
		len(traced), r.solves, len(untraced), r.c.nproc)
}

func residentMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
