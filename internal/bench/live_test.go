package bench

import "testing"

// liveTiny keeps the replay quick under test.
var liveTiny = Config{Scale: 0.005, Workers: 2, MutBatches: []int{1, 8}}

func TestLiveReplayRows(t *testing.T) {
	rows := runExp(t, "live", liveTiny)
	if len(rows) != 2*len(liveTiny.MutBatches) {
		t.Fatalf("got %d rows, want Incremental+RecomputeBZ per batch size (%d)", len(rows), 2*len(liveTiny.MutBatches))
	}
	for i := 0; i < len(rows); i += 2 {
		inc, bz := rows[i], rows[i+1]
		if inc.Algorithm != "Incremental" || bz.Algorithm != "RecomputeBZ" {
			t.Fatalf("row pair %d: algorithms %q / %q", i/2, inc.Algorithm, bz.Algorithm)
		}
		if inc.Experiment != "live" || inc.Param != bz.Param || inc.Dataset != bz.Dataset {
			t.Fatalf("row pair %d mislabeled: %+v / %+v", i/2, inc, bz)
		}
		// Both sides measured the same evolving graph, so the post-stream
		// densities must agree exactly.
		if inc.Density != bz.Density {
			t.Fatalf("param %s: densities diverged: incremental %g, recompute %g", inc.Param, inc.Density, bz.Density)
		}
		if inc.Extra["applied"] <= 0 {
			t.Fatalf("param %s: no mutations applied: %+v", inc.Param, inc.Extra)
		}
		if inc.Seconds <= 0 || bz.Seconds <= 0 {
			t.Fatalf("param %s: non-positive timings: %g / %g", inc.Param, inc.Seconds, bz.Seconds)
		}
	}
}

func TestLiveReplayDeterministic(t *testing.T) {
	a := runExp(t, "live", liveTiny)
	b := runExp(t, "live", liveTiny)
	for i := range a {
		if a[i].Density != b[i].Density || a[i].Extra["applied"] != b[i].Extra["applied"] || a[i].Extra["touched"] != b[i].Extra["touched"] {
			t.Fatalf("row %d not deterministic across runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestLiveReplayTrace(t *testing.T) {
	e := LiveReplayTrace(liveTiny)
	if e.Algorithm != "DynamicKStarCore" || e.Trace == nil {
		t.Fatalf("trace entry: %+v", e)
	}
	want := map[string]bool{"incremental-apply": false, "full-recompute": false, "total": false}
	for _, ph := range e.Trace.Phases {
		if _, ok := want[ph.Name]; ok {
			want[ph.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("trace is missing phase %q", name)
		}
	}
	if e.Trace.Counters["applied"] <= 0 || e.Trace.Counters["batches"] <= 0 {
		t.Fatalf("trace counters: %+v", e.Trace.Counters)
	}
}

// TestNewReportLiveTraceSelection pins the schema-v2 rule: the
// DynamicKStarCore replay trace is attached exactly when the live
// experiment was selected.
func TestNewReportLiveTraceSelection(t *testing.T) {
	with := NewReport(liveTiny, []string{"exp1", "live"}, nil, testStamp)
	without := NewReport(liveTiny, []string{"exp1"}, nil, testStamp)
	if len(with.Traces) != len(without.Traces)+1 {
		t.Fatalf("live selection added %d traces, want 1", len(with.Traces)-len(without.Traces))
	}
	last := with.Traces[len(with.Traces)-1]
	if last.Algorithm != "DynamicKStarCore" {
		t.Fatalf("appended trace algorithm = %q", last.Algorithm)
	}
}
