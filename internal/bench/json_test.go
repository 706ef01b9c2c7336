package bench

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// fixed instant so the report metadata is deterministic under test.
var testStamp = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

// TestReportSchema is the golden-file test of the BENCH_*.json schema: build
// a report, marshal it, and check — through a schema-agnostic unmarshal —
// that every wire field downstream tooling keys on is present under its
// documented name.
func TestReportSchema(t *testing.T) {
	cfg := Config{Scale: 0.005, Workers: 2, Budget: time.Second}
	rows := []Row{{
		Experiment: "exp1", Dataset: "PT", Algorithm: "PKMC",
		Param: "p=2", Seconds: 0.5, Density: 1.5, Iterations: 3,
		Extra: map[string]int64{"k_star": 2},
	}}
	report := NewReport(cfg, []string{"exp1"}, rows, testStamp)

	var buf bytes.Buffer
	if err := WriteReport(&buf, report); err != nil {
		t.Fatal(err)
	}

	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	for _, key := range []string{
		"schema_version", "generated_at", "go_version", "goos", "goarch",
		"num_cpu", "scale", "workers", "budget_ms", "experiments",
		"rows", "traces",
	} {
		if _, ok := doc[key]; !ok {
			t.Errorf("report is missing top-level field %q", key)
		}
	}
	if v, _ := doc["schema_version"].(float64); int(v) != SchemaVersion {
		t.Fatalf("schema_version = %v, want %d", doc["schema_version"], SchemaVersion)
	}
	if got := doc["generated_at"]; got != "2026-01-02T03:04:05Z" {
		t.Fatalf("generated_at = %v, want RFC 3339 UTC", got)
	}

	rowDoc := doc["rows"].([]any)[0].(map[string]any)
	for _, key := range []string{"experiment", "dataset", "algorithm", "param", "seconds", "density", "iterations", "extra"} {
		if _, ok := rowDoc[key]; !ok {
			t.Errorf("row is missing field %q", key)
		}
	}

	traces := doc["traces"].([]any)
	if len(traces) != 2 {
		t.Fatalf("got %d traces, want PKMC and PWC", len(traces))
	}
	seen := map[string]bool{}
	for _, raw := range traces {
		td := raw.(map[string]any)
		algo, _ := td["algorithm"].(string)
		seen[algo] = true
		for _, key := range []string{"dataset", "algorithm", "seconds", "density", "trace"} {
			if _, ok := td[key]; !ok {
				t.Errorf("%s trace entry is missing field %q", algo, key)
			}
		}
		tr := td["trace"].(map[string]any)
		if _, ok := tr["phases"]; !ok {
			t.Errorf("%s trace has no phases", algo)
		}
		if _, ok := tr["parallel"]; !ok {
			t.Errorf("%s trace has no parallel counters", algo)
		}
	}
	if !seen["PKMC"] || !seen["PWC"] {
		t.Fatalf("trace algorithms = %v, want PKMC and PWC", seen)
	}

	// Round-trip: the report must unmarshal back into the Go type unchanged
	// in the fields the schema versions.
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.SchemaVersion != SchemaVersion || back.GeneratedAt != report.GeneratedAt ||
		len(back.Rows) != len(report.Rows) || len(back.Traces) != len(report.Traces) {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
	if back.Rows[0].Extra["k_star"] != 2 {
		t.Fatalf("row extra lost in round-trip: %+v", back.Rows[0])
	}
}

func TestReportFilename(t *testing.T) {
	if got := ReportFilename(testStamp); got != "BENCH_20260102T030405.json" {
		t.Fatalf("ReportFilename = %q", got)
	}
}

// TestCollectTracesContent pins the observability content the report
// promises: PKMC's iteration log with the Theorem-1 early stop and PWC's
// Table-7 arc counters.
func TestCollectTracesContent(t *testing.T) {
	entries := CollectTraces(Config{Scale: 0.005, Workers: 2, Budget: time.Second})
	if len(entries) != 2 {
		t.Fatalf("got %d entries", len(entries))
	}
	pkmc, pwc := entries[0], entries[1]
	if pkmc.Algorithm != "PKMC" || pwc.Algorithm != "PWC" {
		t.Fatalf("algorithms = %s, %s", pkmc.Algorithm, pwc.Algorithm)
	}
	if len(pkmc.Trace.Iterations) == 0 {
		t.Fatal("PKMC trace has no iteration log")
	}
	if pkmc.Trace.PhaseSeconds("total") <= 0 {
		t.Fatalf("PKMC phases incomplete: %+v", pkmc.Trace.Phases)
	}
	names := map[string]bool{}
	for _, p := range pkmc.Trace.Phases {
		names[p.Name] = true
	}
	if !names["core-decomposition"] || !names["density-evaluation"] {
		t.Fatalf("PKMC phase names = %v", names)
	}
	if _, ok := pwc.Trace.Counters["arcs_input"]; !ok {
		t.Fatalf("PWC trace counters = %v", pwc.Trace.Counters)
	}
	if pkmc.Trace.Parallel.Regions == 0 || pwc.Trace.Parallel.Regions == 0 {
		t.Fatal("parallel-runtime counters were not collected")
	}
}

func TestDatasetRows(t *testing.T) {
	rows := runExp(t, "datasets", Config{Scale: 0.005})
	if len(rows) != 12 {
		t.Fatalf("got %d dataset rows, want 12", len(rows))
	}
	for _, r := range rows {
		if r.Extra["n"] <= 0 || r.Extra["m"] <= 0 {
			t.Fatalf("dataset %s has empty model: %+v", r.Dataset, r.Extra)
		}
	}
}
