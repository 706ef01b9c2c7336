package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of -compare for one (workload, metric) pair.
const (
	verdictImproved   = "improved"   // wins >= 9/10 of the pairs and moves by more than the parent's spread
	verdictRegressed  = "regressed"  // median worse than the parent's by more than the bound
	verdictUnresolved = "unresolved" // spread wider than the bound, and not every run better
	verdictUnchanged  = "unchanged"  // within the bound, spread within the bound
)

// runCompare prints one verdict per (workload, end-to-end metric) pair of
// two results files written by -append — the parent's runs and the
// change's, paired in file order — and fails when any pair regressed.
func runCompare(sp *spec, parentPath, changePath string, stdout, stderr io.Writer) int {
	parent, err := readResults(parentPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return exitUsage
	}
	change, err := readResults(changePath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return exitUsage
	}
	fmt.Fprintf(stdout, "%-11s %-12s %-10s %27s %27s %8s %6s\n",
		"workload", "metric", "verdict", "parent median [q1, q3]", "change median [q1, q3]", "change", "wins")
	regressed, compared := false, 0
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			a, b := parent[w.Name][m.Name], change[w.Name][m.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			compared++
			v := judge(a, b, m.Better == "lower", m.Bound)
			if v.verdict == verdictRegressed {
				regressed = true
			}
			fmt.Fprintf(stdout, "%-11s %-12s %-10s %27s %27s %+7.1f%% %3d/%-2d\n",
				w.Name, m.Name, v.verdict, quartileText(a), quartileText(b),
				100*v.change, v.wins, v.pairs)
		}
	}
	if compared == 0 {
		fmt.Fprintln(stderr, "perfbench: no workload has untraced results in both files")
		return exitUsage
	}
	if regressed {
		return 1
	}
	return 0
}

type judgement struct {
	verdict     string
	change      float64 // relative change of the median, positive = better
	wins, pairs int
}

// judge applies the benchmark's comparison rule to the parent's runs a and
// the change's runs b of one metric.
func judge(a, b []float64, lowerBetter bool, bound float64) judgement {
	better := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	ma, mb := median(a), median(b)
	scale := math.Abs(ma)
	if scale == 0 {
		scale = 1
	}
	j := judgement{change: (mb - ma) / scale}
	if lowerBetter {
		j.change = -j.change
	}
	for i := range min(len(a), len(b)) {
		j.pairs++
		if better(b[i], a[i]) {
			j.wins++
		}
	}
	q1a, q3a := quartiles(a)
	q1b, q3b := quartiles(b)
	spread := math.Max((q3a-q1a)/scale, (q3b-q1b)/math.Max(math.Abs(mb), 1e-300))
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	switch {
	case j.change < -bound:
		j.verdict = verdictRegressed
	case j.pairs > 0 && 10*j.wins >= 9*j.pairs && math.Abs(mb-ma) > q3a-q1a:
		j.verdict = verdictImproved
	case spread > bound && !allBetter:
		j.verdict = verdictUnresolved
	default:
		j.verdict = verdictUnchanged
	}
	return j
}

func quartileText(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), q1, q3)
}

// readResults loads the untraced results of a file written by -append,
// as workload -> metric -> values in file order.
func readResults(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var tr taggedResult
		if err := json.Unmarshal(sc.Bytes(), &tr); err != nil || tr.Result == nil {
			return nil, fmt.Errorf("%s:%d: not a result line written by -append", path, line)
		}
		if tr.Trace != 0 {
			continue
		}
		if out[tr.Workload] == nil {
			out[tr.Workload] = map[string][]float64{}
		}
		for name, m := range tr.Result.Metrics {
			out[tr.Workload][name] = append(out[tr.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}
