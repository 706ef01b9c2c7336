package bench

import (
	"encoding/json"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/solver"
	"repro/internal/trace"
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
// iteration log with its certified early stop, PWC's Table-7 arc counters,
// and the parallel-runtime work counters of each run.
func CollectTraces(cfg Config) []TraceEntry {
	cfg = cfg.withDefaults()
	var out []TraceEntry
	for _, f := range []struct {
		kind       solver.Kind
		name, abbr string
	}{{solver.KindUDS, "pkmc", "PT"}, {solver.KindDDS, "pwc", "AM"}} {
		d := lookup(f.kind, f.name)
		tr := &trace.Trace{}
		// The envelope dsd.SolveUDS/SolveDDS open around a solve.
		finish := tr.Begin()
		r := solve(d, model(f.abbr, cfg.Scale), solver.Params{Workers: cfg.Workers, Trace: tr})
		finish()
		out = append(out, TraceEntry{
			Dataset: f.abbr, Algorithm: d.Display, Seconds: tr.PhaseSeconds("total"),
			Density: r.Density, Trace: tr,
		})
	}
	return out
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
