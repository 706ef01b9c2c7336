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
	if len(report.Rows) != 24 {
		t.Fatalf("rows = %d, want 24 (6 datasets x 4 algorithms)", len(report.Rows))
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
// error that lists the valid names, never an empty report.
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
