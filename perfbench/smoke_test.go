package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const specPath = "../BENCHMARK.json"

func TestCatalogMatchesSpec(t *testing.T) {
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.checkCatalog(); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("spec workloads %v, program workloads %v", names, workloadNames())
	}
	var setupBound, maxBound float64
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %g better %q", m.Name, m.Bound, m.Better)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %g is not the largest (%g)", setupBound, maxBound)
	}
}

// tinyInputs shrinks every workload's models so a run takes about a
// second.
func tinyInputs(t *testing.T) {
	uds, dds, mix, churn, dir := udsSolveSpec.models, ddsSolveSpec.models, serveMixModels, liveChurnModel, buildDir
	t.Cleanup(func() {
		udsSolveSpec.models, ddsSolveSpec.models, serveMixModels, liveChurnModel, buildDir = uds, dds, mix, churn, dir
	})
	udsSolveSpec.models = []model{{"EU", 0.02}, {"UN", 0.02}}
	ddsSolveSpec.models = []model{{"AM", 0.05}, {"WE", 0.02}}
	serveMixModels = []model{{"PT", 0.02}, {"EW", 0.02}, {"AM", 0.05}}
	liveChurnModel = model{"PT", 0.02}
	buildDir = t.TempDir()
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	tinyInputs(t)
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			spans := filepath.Join(t.TempDir(), "spans.json")
			var out, errOut bytes.Buffer
			code := realMain([]string{"-spec", specPath, "-workload", name, "-seed", "1",
				"-seconds", "0.6", "-trace", trace, "-spans", spans}, &out, &errOut)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s%s", name, trace, code, out.String(), errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not a result: %v", name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d", name, trace, res.Correct, res.Attempted)
			}
			want := map[string]string{}
			if trace == "0" {
				for _, m := range sp.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range sp.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, spec declares %d", name, trace, len(res.Metrics), len(want))
			}
			for n, vu := range res.Metrics {
				if want[n] != vu.Unit {
					t.Errorf("%s trace=%s: metric %s unit %q, spec says %q", name, trace, n, vu.Unit, want[n])
				}
			}
			if trace == "1" {
				b, err := os.ReadFile(spans)
				if err != nil {
					t.Fatal(err)
				}
				var doc struct{ Spans []span }
				if err := json.Unmarshal(b, &doc); err != nil || len(doc.Spans) == 0 {
					t.Errorf("%s: span file holds %d spans (%v)", name, len(doc.Spans), err)
				}
			}
		}
	}
}
