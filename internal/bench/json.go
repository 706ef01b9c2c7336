package bench

import (
	"encoding/json"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/dds"
	"repro/internal/gen"
	"repro/internal/solver"
	"repro/internal/trace"
	"repro/internal/uds"
)

// SchemaVersion identifies the BENCH_*.json report layout. Bump it on any
// breaking change to Report, Row, or TraceEntry wire names — downstream
// tooling (CI artifact checks, plotting scripts) keys on it.
//
// Version history:
//
//	1: initial layout (rows + PKMC/PWC convergence traces).
//	2: live mutation-replay rows (experiment "live": per-batch-size
//	   Incremental vs RecomputeBZ timings) and, when "live" is among the
//	   selected experiments, a DynamicKStarCore trace with the
//	   incremental-apply / full-recompute phase split.
//	3: per-row heap-allocation counts ("allocs") and the runtime knobs
//	   that shift wall times and allocation behaviour ("gomaxprocs",
//	   "gogc") in the report metadata.
const SchemaVersion = 3

// Report is the machine-readable benchmark artifact written by
// `dsdbench -json`: run metadata, the measurement rows of the selected
// experiments, and one full solver trace per flagship algorithm so the
// convergence behavior (phase split, h-index iteration log, early stop) is
// archived next to the timings. The schema is documented in DESIGN.md.
type Report struct {
	SchemaVersion int    `json:"schema_version"`
	GeneratedAt   string `json:"generated_at"` // RFC 3339, UTC
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	NumCPU        int    `json:"num_cpu"`
	// GOMAXPROCS and GOGC record the runtime configuration of the run;
	// either knob shifts wall times and allocation behavior, so a reader
	// comparing two reports should check them first.
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"` // $GOGC, or "default" when unset

	Scale    float64  `json:"scale"`
	Workers  int      `json:"workers"` // 0 = GOMAXPROCS
	BudgetMs int64    `json:"budget_ms"`
	Selected []string `json:"experiments"`

	Rows   []Row        `json:"rows"`
	Traces []TraceEntry `json:"traces"`
}

// TraceEntry archives one traced solver run.
type TraceEntry struct {
	Dataset   string       `json:"dataset"`
	Algorithm string       `json:"algorithm"`
	Seconds   float64      `json:"seconds"`
	Density   float64      `json:"density"`
	Trace     *trace.Trace `json:"trace"`
}

// NewReport assembles the artifact: metadata from the running binary,
// the caller's measurement rows, and freshly collected convergence traces
// (plus a mutation-replay trace when the live experiment was selected).
// generatedAt is injected so tests stay deterministic.
func NewReport(cfg Config, selected []string, rows []Row, generatedAt time.Time) Report {
	cfg = cfg.withDefaults()
	traces := CollectTraces(cfg)
	for _, name := range selected {
		if name == "live" {
			traces = append(traces, LiveReplayTrace(cfg))
			break
		}
	}
	return Report{
		SchemaVersion: SchemaVersion,
		GeneratedAt:   generatedAt.UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GOGC:          gogcSetting(),
		Scale:         cfg.Scale,
		Workers:       cfg.Workers,
		BudgetMs:      cfg.Budget.Milliseconds(),
		Selected:      selected,
		Rows:          rows,
		Traces:        traces,
	}
}

// CollectTraces runs the two flagship solvers with full observability on
// the smallest catalog models — PKMC (Algorithm 2) on PT, PWC (Algorithm 4)
// on AM — and returns their traces: per-phase wall times, the PKMC h-index
// iteration log with its Theorem-1 early stop, PWC's Table-7 arc counters,
// and the parallel-runtime work counters of each run.
func CollectTraces(cfg Config) []TraceEntry {
	cfg = cfg.withDefaults()
	var out []TraceEntry

	pt := gen.UndirectedCatalog()[0]
	g := pt.BuildUndirected(cfg.Scale)
	tr := &trace.Trace{}
	// A nil ctx never cancels, so neither solve can fail.
	var udsRes solver.Result
	sec := tracedRun(tr, func() { udsRes, _ = uds.PKMC(nil, g, solver.Params{Workers: cfg.Workers, Trace: tr}) })
	out = append(out, TraceEntry{
		Dataset: pt.Abbr, Algorithm: udsRes.Algorithm, Seconds: sec,
		Density: udsRes.Density, Trace: tr,
	})

	am := gen.DirectedCatalog()[0]
	d := am.BuildDirected(cfg.Scale)
	tr = &trace.Trace{}
	var ddsRes solver.DirectedResult
	sec = tracedRun(tr, func() { ddsRes, _ = dds.PWC(nil, d, solver.Params{Workers: cfg.Workers, Trace: tr}) })
	out = append(out, TraceEntry{
		Dataset: am.Abbr, Algorithm: ddsRes.Algorithm, Seconds: sec,
		Density: ddsRes.Density, Trace: tr,
	})
	return out
}

// tracedRun runs one solver inside tr's envelope (the same one
// dsd.SolveUDS/SolveDDS open, for callers driving internal solvers
// directly) and returns the run's seconds.
func tracedRun(tr *trace.Trace, run func()) float64 {
	finish := tr.Begin()
	run()
	finish()
	return tr.PhaseSeconds("total")
}

// DatasetRows is the machine-readable face of Datasets: one row per catalog
// model with its materialized sizes in Extra (Tables 4 and 5).
func DatasetRows(cfg Config) []Row {
	cfg = cfg.withDefaults()
	var rows []Row
	for _, ds := range gen.UndirectedCatalog() {
		st := ds.BuildUndirected(cfg.Scale).Summarize(ds.Abbr)
		rows = append(rows, Row{
			Experiment: "datasets", Dataset: ds.Abbr, Algorithm: "-",
			Extra: map[string]int64{"n": int64(st.N), "m": st.M, "max_deg": int64(st.MaxDeg)},
		})
	}
	for _, ds := range gen.DirectedCatalog() {
		st := ds.BuildDirected(cfg.Scale).Summarize(ds.Abbr)
		rows = append(rows, Row{
			Experiment: "datasets", Dataset: ds.Abbr, Algorithm: "-",
			Extra: map[string]int64{"n": int64(st.N), "m": st.M,
				"max_out_deg": int64(st.MaxOutDeg), "max_in_deg": int64(st.MaxInDeg)},
		})
	}
	return rows
}

// gogcSetting reports the GOGC environment setting of this process, or
// "default" when unset (the runtime's 100).
func gogcSetting() string {
	if v := os.Getenv("GOGC"); v != "" {
		return v
	}
	return "default"
}

// WriteReport encodes the report as indented JSON.
func WriteReport(w io.Writer, r Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReportFilename is the canonical artifact name for a report generated at t:
// BENCH_<compact UTC timestamp>.json.
func ReportFilename(t time.Time) string {
	return "BENCH_" + t.UTC().Format("20060102T150405") + ".json"
}
