package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// tiny keeps harness tests fast: minimal datasets, tight budget.
var tiny = Config{
	Scale:       0.01,
	Workers:     2,
	Budget:      200 * time.Millisecond,
	ThreadSweep: []int{1, 2},
	Fractions:   []float64{0.5, 1.0},
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale != 0.1 || c.Budget != 30*time.Second {
		t.Fatalf("defaults: %+v", c)
	}
	if len(c.ThreadSweep) == 0 || len(c.Fractions) != 5 {
		t.Fatalf("defaults: %+v", c)
	}
}

// runExp runs the named experiment of the shared table.
func runExp(t *testing.T, name string, cfg Config) []Row {
	t.Helper()
	for _, e := range Experiments() {
		if e.Name == name {
			return e.Rows(cfg)
		}
	}
	t.Fatalf("no experiment %q", name)
	return nil
}

// TestCaseNamesUnique guards BenchmarkPaper's sub-benchmark names: b.Run
// silently suffixes a colliding name with "#01", so a duplicate case would
// otherwise go unnoticed.
func TestCaseNamesUnique(t *testing.T) {
	exps := map[string]bool{}
	for _, e := range Experiments() {
		if exps[e.Name] {
			t.Fatalf("experiment %q listed twice", e.Name)
		}
		exps[e.Name] = true
		cases := e.Cases(tiny)
		if len(cases) == 0 {
			t.Fatalf("%s: no cases", e.Name)
		}
		seen := map[string]bool{}
		for _, c := range cases {
			if seen[c.Name()] {
				t.Fatalf("%s: duplicate case %q", e.Name, c.Name())
			}
			seen[c.Name()] = true
		}
	}
}

func TestDatasetsRenders(t *testing.T) {
	var buf bytes.Buffer
	RenderCatalog(&buf, runExp(t, "datasets", tiny))
	out := buf.String()
	for _, want := range []string{"Table 4", "Table 5", "PT", "TW", "Petster"} {
		if !strings.Contains(out, want) {
			t.Fatalf("datasets output missing %q:\n%s", want, out)
		}
	}
}

func TestExp1AllCells(t *testing.T) {
	rows := runExp(t, "exp1", tiny)
	if len(rows) != 6*5 {
		t.Fatalf("exp1 rows = %d, want 30", len(rows))
	}
	for _, r := range rows {
		if r.Seconds < 0 || r.Density <= 0 {
			t.Fatalf("bad row: %+v", r)
		}
	}
	// Within a dataset, every core-based algorithm must report the same
	// density (they all return the k*-core).
	byDS := map[string]map[string]float64{}
	for _, r := range rows {
		if byDS[r.Dataset] == nil {
			byDS[r.Dataset] = map[string]float64{}
		}
		byDS[r.Dataset][r.Algorithm] = r.Density
	}
	for ds, m := range byDS {
		if m["Local"] != m["PKC"] || m["PKC"] != m["PKMC"] {
			t.Fatalf("%s: core-based densities disagree: %v", ds, m)
		}
	}
}

func TestExp2IterationOrdering(t *testing.T) {
	rows := runExp(t, "exp2", tiny)
	iters := map[string]map[string]int{}
	for _, r := range rows {
		if iters[r.Dataset] == nil {
			iters[r.Dataset] = map[string]int{}
		}
		iters[r.Dataset][r.Algorithm] = r.Iterations
	}
	for ds, m := range iters {
		if m["PKMC"] > m["Local"] {
			t.Fatalf("%s: PKMC iterations (%d) exceed Local's (%d)", ds, m["PKMC"], m["Local"])
		}
		if m["PKMC"] > m["PKC"] {
			t.Fatalf("%s: PKMC iterations (%d) exceed PKC's (%d)", ds, m["PKMC"], m["PKC"])
		}
	}
}

func TestExp3CoversSweep(t *testing.T) {
	rows := runExp(t, "exp3", tiny)
	params := map[string]bool{}
	for _, r := range rows {
		params[r.Param] = true
	}
	if !params["p=1"] || !params["p=2"] {
		t.Fatalf("thread sweep incomplete: %v", params)
	}
}

func TestExp4CoversFractions(t *testing.T) {
	rows := runExp(t, "exp4", tiny)
	params := map[string]bool{}
	for _, r := range rows {
		params[r.Param] = true
	}
	if !params["50%"] || !params["100%"] {
		t.Fatalf("fraction sweep incomplete: %v", params)
	}
}

func TestExp5AllAlgorithms(t *testing.T) {
	rows := runExp(t, "exp5", tiny)
	algos := map[string]int{}
	for _, r := range rows {
		algos[r.Algorithm]++
	}
	for _, a := range []string{"PBS", "PFKS", "PFW", "PBD", "PXY", "PWC"} {
		if algos[a] != 6 {
			t.Fatalf("algorithm %s ran %d times, want 6", a, algos[a])
		}
	}
	// PWC and PXY compute the same core family: same density per dataset.
	d := map[string]map[string]float64{}
	for _, r := range rows {
		if d[r.Dataset] == nil {
			d[r.Dataset] = map[string]float64{}
		}
		d[r.Dataset][r.Algorithm] = r.Density
	}
	for ds, m := range d {
		if m["PWC"] != m["PXY"] {
			t.Fatalf("%s: PWC density %v != PXY %v", ds, m["PWC"], m["PXY"])
		}
	}
}

func TestExp6TableInvariants(t *testing.T) {
	rows := runExp(t, "exp6", tiny)
	if len(rows) != 6 {
		t.Fatalf("exp6 rows = %d", len(rows))
	}
	for _, r := range rows {
		e := r.Extra
		if e["PWC1"] > e["PXY"] {
			t.Fatalf("%s: warm start grew the graph: %v", r.Dataset, e)
		}
		if e["PWCw*"] > e["PWC1"] {
			t.Fatalf("%s: w*-subgraph exceeds warm-start remainder: %v", r.Dataset, e)
		}
		if e["PWCD*"] > e["PWCw*"] {
			t.Fatalf("%s: densest core exceeds w*-subgraph: %v", r.Dataset, e)
		}
	}
}

func TestExp7And8Run(t *testing.T) {
	if rows := runExp(t, "exp7", tiny); len(rows) != 3*2*3 {
		t.Fatalf("exp7 rows = %d, want 18", len(rows))
	}
	if rows := runExp(t, "exp8", tiny); len(rows) != 2*2*3 {
		t.Fatalf("exp8 rows = %d, want 12", len(rows))
	}
}

func TestRatiosWithinBounds(t *testing.T) {
	rows := runExp(t, "ratios", tiny)
	if len(rows) == 0 {
		t.Fatal("no ratio rows")
	}
	for _, r := range rows {
		ratio := float64(r.Extra["ratio_x1000"]) / 1000
		if ratio < 0.999 {
			t.Fatalf("%s/%s: ratio %v below 1 — beat the exact solver?", r.Dataset, r.Algorithm, ratio)
		}
		bound := 3.01 // PBU at ε=0.5 has the loosest bound of the UDS lineup
		if r.Dataset == "biclique" {
			bound = 8.01 // PBD at δ=2, ε=1
		}
		if !r.TimedOut && ratio > bound {
			t.Fatalf("%s/%s: ratio %v above bound %v", r.Dataset, r.Algorithm, ratio, bound)
		}
	}
}

func TestFormatRows(t *testing.T) {
	var buf bytes.Buffer
	FormatRows(&buf, "title", []Row{
		{Dataset: "PT", Algorithm: "PKMC", Seconds: 0.5, Density: 2.0, Iterations: 3},
		{Dataset: "PT", Algorithm: "PBS", Seconds: 30, TimedOut: true, Extra: map[string]int64{"k": 7}},
	})
	out := buf.String()
	if !strings.Contains(out, "title") || !strings.Contains(out, "PKMC") {
		t.Fatalf("format output:\n%s", out)
	}
	if !strings.Contains(out, ">30.0000*") {
		t.Fatalf("timed-out marker missing:\n%s", out)
	}
	if !strings.Contains(out, "k=7") {
		t.Fatalf("extra counters missing:\n%s", out)
	}
	buf.Reset()
	FormatRows(&buf, "empty", nil)
	if !strings.Contains(buf.String(), "(no rows)") {
		t.Fatal("empty rendering")
	}
}

func TestSpeedup(t *testing.T) {
	rows := []Row{
		{Dataset: "PT", Algorithm: "PKMC", Seconds: 1},
		{Dataset: "PT", Algorithm: "Local", Seconds: 5},
		{Dataset: "EW", Algorithm: "PKMC", Seconds: 2},
	}
	sp := Speedup(rows, "PKMC", "Local")
	if len(sp) != 1 || sp["PT"] != 5 {
		t.Fatalf("speedup = %v", sp)
	}
}

func TestRenderBars(t *testing.T) {
	var buf bytes.Buffer
	RenderBars(&buf, "fig", []Row{
		{Dataset: "PT", Algorithm: "PKMC", Seconds: 0.001},
		{Dataset: "PT", Algorithm: "PFW", Seconds: 0.1},
		{Dataset: "PT", Algorithm: "PBS", Seconds: 10, TimedOut: true},
		{Dataset: "EW", Algorithm: "PKMC", Seconds: 0.002},
	})
	out := buf.String()
	if !strings.Contains(out, "budget exhausted") {
		t.Fatalf("timed-out bar missing:\n%s", out)
	}
	if !strings.Contains(out, "PT") || !strings.Contains(out, "EW") {
		t.Fatalf("dataset groups missing:\n%s", out)
	}
	// The slower algorithm must draw the longer bar.
	fast := strings.Index(out, "PKMC")
	if fast < 0 {
		t.Fatal("rows missing")
	}
	lines := strings.Split(out, "\n")
	var fastBar, slowBar int
	for _, l := range lines {
		if strings.Contains(l, "PKMC") && fastBar == 0 {
			fastBar = strings.Count(l, "#")
		}
		if strings.Contains(l, "PFW") {
			slowBar = strings.Count(l, "#")
		}
	}
	if slowBar <= fastBar {
		t.Fatalf("bar lengths not ordered: fast=%d slow=%d\n%s", fastBar, slowBar, out)
	}
	buf.Reset()
	RenderBars(&buf, "empty", nil)
	if !strings.Contains(buf.String(), "(no rows)") {
		t.Fatal("empty rendering")
	}
}

func TestRenderSeries(t *testing.T) {
	var buf bytes.Buffer
	RenderSeries(&buf, "sweep", []Row{
		{Dataset: "PT", Algorithm: "PKMC", Param: "p=1", Seconds: 0.004},
		{Dataset: "PT", Algorithm: "PKMC", Param: "p=2", Seconds: 0.002},
		{Dataset: "PT", Algorithm: "PKC", Param: "p=1", Seconds: 0.01},
	})
	out := buf.String()
	if !strings.Contains(out, "p=1") || !strings.Contains(out, "p=2") {
		t.Fatalf("sweep columns missing:\n%s", out)
	}
	if !strings.Contains(out, "PKC") || !strings.Contains(out, "-") {
		t.Fatalf("missing-cell placeholder absent:\n%s", out)
	}
	buf.Reset()
	RenderSeries(&buf, "empty", nil)
	if !strings.Contains(buf.String(), "(no rows)") {
		t.Fatal("empty rendering")
	}
}
