package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

func TestRunDatasetsOnly(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "datasets", "-scale", "0.005"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Table 4", "Table 5", "Petster", "Twitter"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in:\n%s", want, s)
		}
	}
	if strings.Contains(s, "Exp-1") {
		t.Fatal("unselected experiment ran")
	}
}

func TestRunSelectedExperiments(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-exp", "exp2,exp6", "-scale", "0.005", "-budget", "2s"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Table 6") || !strings.Contains(s, "Table 7") {
		t.Fatalf("selected experiments missing:\n%s", s)
	}
}

func TestRunExp1PrintsSpeedups(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "exp1", "-scale", "0.005"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "speedup PKMC vs") {
		t.Fatalf("speedup summary missing:\n%s", out.String())
	}
}

func TestRunThreadSweepFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "exp3", "-scale", "0.005", "-threads", "1,2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "p=2") {
		t.Fatalf("thread sweep not honored:\n%s", out.String())
	}
	if strings.Contains(out.String(), "p=4") {
		t.Fatal("default sweep leaked past -threads")
	}
}

func TestRunBadThreads(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-threads", "zero"}, &out); err == nil {
		t.Fatal("bad -threads accepted")
	}
}

func TestRunChartMode(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "exp1", "-scale", "0.005", "-chart"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "log scale") {
		t.Fatalf("chart output missing:\n%s", out.String())
	}
}

func TestRunJSONMode(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-exp", "exp2", "-scale", "0.005", "-json", "-out", dir}, &out); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("artifact files = %v (err %v), want exactly one", matches, err)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	var report bench.Report
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if report.SchemaVersion != bench.SchemaVersion {
		t.Fatalf("schema_version = %d, want %d", report.SchemaVersion, bench.SchemaVersion)
	}
	if len(report.Rows) != 18 {
		t.Fatalf("rows = %d, want 18 (6 datasets x 3 algorithms)", len(report.Rows))
	}
	if report.Rows[0].Algorithm == "" || report.Rows[0].Dataset == "" {
		t.Fatalf("row shape: %+v", report.Rows[0])
	}
	if len(report.Traces) != 2 {
		t.Fatalf("traces = %d, want PKMC and PWC", len(report.Traces))
	}
	if !strings.Contains(out.String(), matches[0]) {
		t.Fatalf("run did not announce the artifact path:\n%s", out.String())
	}
}

// TestRunUnknownExperiment proves a misspelled or retired -exp name is an
// error that lists the valid names, never an empty report (in -json mode
// an empty report would also pass any ratchet).
func TestRunUnknownExperiment(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "extensions", "-scale", "0.005"},
		{"-exp", "acuracy", "-scale", "0.005", "-json"},
	} {
		dir := t.TempDir()
		var out bytes.Buffer
		err := run(append(args, "-out", dir), &out)
		if err == nil {
			t.Fatalf("%v accepted:\n%s", args, out.String())
		}
		if !strings.Contains(err.Error(), args[1]) || !strings.Contains(err.Error(), "accuracy") {
			t.Fatalf("%v: error %q does not name the bad entry and the valid ones", args, err)
		}
		if matches, _ := filepath.Glob(filepath.Join(dir, "BENCH_*.json")); len(matches) != 0 {
			t.Fatalf("%v wrote %v", args, matches)
		}
	}
}

// TestRatchetRejectsDisjointBaseline proves a comparable baseline from
// another experiment fails the ratchet instead of passing vacuously: the
// two reports share no row, so nothing would be compared.
func TestRatchetRejectsDisjointBaseline(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-exp", "datasets", "-scale", "0.005", "-json", "-out", dir}, &out); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("artifact files = %v (err %v), want exactly one", matches, err)
	}
	var out2 bytes.Buffer
	err = run([]string{"-exp", "exp2", "-scale", "0.005", "-json",
		"-out", t.TempDir(), "-baseline", matches[0]}, &out2)
	if err == nil {
		t.Fatalf("disjoint baseline passed the ratchet:\n%s", out2.String())
	}
	if !strings.Contains(err.Error(), "shares no rows") {
		t.Fatalf("ratchet error %q does not explain the disjoint baseline", err)
	}
}

func TestBaselineRequiresJSON(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-baseline", "nope.json"}, &out); err == nil {
		t.Fatal("-baseline without -json accepted")
	}
}

// TestRatchetCatchesSeededRegression drives the perf ratchet end to end:
// a real benchmark run produces the report, the report is doctored into a
// baseline that claims the same rows ran 1000x faster with 1000x fewer
// allocations, and a second run with -baseline and zeroed-out slack must
// exit nonzero naming the regressions. A control rerun against the
// undoctored report (generous default slack) must pass — proving the
// failure comes from the seeded regression, not from run-to-run jitter.
func TestRatchetCatchesSeededRegression(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-exp", "accuracy", "-scale", "0.01", "-json", "-out", dir}, &out); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("artifact files = %v (err %v), want exactly one", matches, err)
	}
	report, err := bench.ReadReport(matches[0])
	if err != nil {
		t.Fatal(err)
	}

	// Control: the undoctored report as baseline. The rerun measures the
	// same workload, so with the default slacks nothing may trip.
	var ctrl bytes.Buffer
	ctrlDir := t.TempDir()
	err = run([]string{"-exp", "accuracy", "-scale", "0.01", "-json",
		"-out", ctrlDir, "-baseline", matches[0]}, &ctrl)
	if err != nil {
		t.Fatalf("control run against the real baseline failed: %v\n%s", err, ctrl.String())
	}
	if !strings.Contains(ctrl.String(), "no regressions") {
		t.Fatalf("control run did not report a clean ratchet:\n%s", ctrl.String())
	}

	// Doctor the baseline: every row claims to have been 1000x faster and
	// leaner, so the genuine rerun is a massive seeded regression.
	for i := range report.Rows {
		report.Rows[i].Seconds /= 1000
		if report.Rows[i].Allocs > 0 {
			report.Rows[i].Allocs = 1
		}
	}
	doctored := filepath.Join(dir, "baseline_doctored.json")
	f, err := os.Create(doctored)
	if err != nil {
		t.Fatal(err)
	}
	if err := bench.WriteReport(f, report); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var fail bytes.Buffer
	failDir := t.TempDir()
	err = run([]string{"-exp", "accuracy", "-scale", "0.01", "-json",
		"-out", failDir, "-baseline", doctored,
		"-ratchet-slack", "0.000000001", "-ratchet-alloc-slack", "1"}, &fail)
	if err == nil {
		t.Fatalf("seeded 1000x regression passed the ratchet:\n%s", fail.String())
	}
	if !strings.Contains(err.Error(), "regressed against baseline") {
		t.Fatalf("ratchet error %q does not name the baseline", err)
	}
	if !strings.Contains(fail.String(), "ratchet: REGRESSION") {
		t.Fatalf("regression rows not printed:\n%s", fail.String())
	}
}

// TestRatchetSkipsIncomparableBaseline proves a baseline from a different
// environment degrades to a note-and-pass instead of failing the run.
func TestRatchetSkipsIncomparableBaseline(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-exp", "datasets", "-scale", "0.005", "-json", "-out", dir}, &out); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("artifact files = %v (err %v), want exactly one", matches, err)
	}
	report, err := bench.ReadReport(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	report.GoVersion = "go0.0-otherhost"
	for i := range report.Rows {
		report.Rows[i].Seconds /= 1000 // would regress hard if compared
	}
	foreign := filepath.Join(dir, "baseline_foreign.json")
	f, err := os.Create(foreign)
	if err != nil {
		t.Fatal(err)
	}
	if err := bench.WriteReport(f, report); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var out2 bytes.Buffer
	err = run([]string{"-exp", "datasets", "-scale", "0.005", "-json",
		"-out", t.TempDir(), "-baseline", foreign}, &out2)
	if err != nil {
		t.Fatalf("incomparable baseline failed the run: %v\n%s", err, out2.String())
	}
	if !strings.Contains(out2.String(), "not comparable") || !strings.Contains(out2.String(), "go_version") {
		t.Fatalf("skip note missing or unexplained:\n%s", out2.String())
	}
}
