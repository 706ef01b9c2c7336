package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// This file implements the perf ratchet behind `dsdbench -baseline`: a
// fresh BENCH report is compared row-by-row against a stored baseline
// report, and any row whose wall time or allocation count regressed past
// the configured factor fails the run. CI keeps the last good report as
// an artifact, so a PR that slows a kernel down (or re-introduces an
// allocation the hotalloc discipline removed) turns red instead of
// silently shifting the baseline.

// RatchetOptions tune the regression thresholds. Zero values take the
// defaults; the slacks exist because micro-rows (sub-millisecond runs,
// double-digit alloc counts) jitter far beyond any sensible factor.
type RatchetOptions struct {
	// Factor flags a row when current > Factor*baseline + Slack (wall
	// time, seconds). Default 1.5.
	Factor float64
	// Slack is the absolute wall-time grace in seconds. Default 0.05.
	Slack float64
	// AllocFactor flags a row when allocs exceed AllocFactor*baseline +
	// AllocSlack. Default 2.
	AllocFactor float64
	// AllocSlack is the absolute allocation-count grace. Default 10000.
	AllocSlack int64
}

func (o RatchetOptions) withDefaults() RatchetOptions {
	if o.Factor <= 0 {
		o.Factor = 1.5
	}
	if o.Slack <= 0 {
		o.Slack = 0.05
	}
	if o.AllocFactor <= 0 {
		o.AllocFactor = 2
	}
	if o.AllocSlack <= 0 {
		o.AllocSlack = 10000
	}
	return o
}

// Regression is one ratchet violation: a row key, which metric tripped,
// and the two values.
type Regression struct {
	Key      string // "experiment|dataset|algorithm|param"
	Metric   string // "seconds" or "allocs"
	Baseline float64
	Current  float64
}

func (r Regression) String() string {
	if r.Metric == "allocs" {
		return fmt.Sprintf("%s: %s %.0f -> %.0f", r.Key, r.Metric, r.Baseline, r.Current)
	}
	return fmt.Sprintf("%s: %s %.4fs -> %.4fs", r.Key, r.Metric, r.Baseline, r.Current)
}

// rowKey identifies a measurement across runs.
func rowKey(r Row) string {
	return r.Experiment + "|" + r.Dataset + "|" + r.Algorithm + "|" + r.Param
}

// Comparable reports whether two reports were produced under equivalent
// conditions — same schema, toolchain, platform, CPU budget, and runtime
// knobs — and if not, why. Ratcheting across different machines or Go
// versions only produces noise, so the driver skips (rather than fails)
// incomparable baselines.
func Comparable(baseline, current Report) (bool, string) {
	switch {
	case baseline.SchemaVersion != current.SchemaVersion:
		return false, fmt.Sprintf("schema_version %d vs %d", baseline.SchemaVersion, current.SchemaVersion)
	case baseline.GoVersion != current.GoVersion:
		return false, fmt.Sprintf("go_version %s vs %s", baseline.GoVersion, current.GoVersion)
	case baseline.GOOS != current.GOOS || baseline.GOARCH != current.GOARCH:
		return false, fmt.Sprintf("platform %s/%s vs %s/%s", baseline.GOOS, baseline.GOARCH, current.GOOS, current.GOARCH)
	case baseline.NumCPU != current.NumCPU:
		return false, fmt.Sprintf("num_cpu %d vs %d", baseline.NumCPU, current.NumCPU)
	case baseline.GOMAXPROCS != current.GOMAXPROCS:
		return false, fmt.Sprintf("gomaxprocs %d vs %d", baseline.GOMAXPROCS, current.GOMAXPROCS)
	case baseline.GOGC != current.GOGC:
		return false, fmt.Sprintf("gogc %s vs %s", baseline.GOGC, current.GOGC)
	case baseline.Scale != current.Scale:
		return false, fmt.Sprintf("scale %g vs %g", baseline.Scale, current.Scale)
	case baseline.Workers != current.Workers:
		return false, fmt.Sprintf("workers %d vs %d", baseline.Workers, current.Workers)
	}
	return true, ""
}

// SharedRows counts the current report's rows whose key also appears in
// the baseline. Zero means the two reports measured disjoint experiments,
// so CompareReports would vacuously find no regressions.
func SharedRows(baseline, current Report) int {
	base := make(map[string]bool, len(baseline.Rows))
	for _, r := range baseline.Rows {
		base[rowKey(r)] = true
	}
	n := 0
	for _, r := range current.Rows {
		if base[rowKey(r)] {
			n++
		}
	}
	return n
}

// CompareReports diffs current against baseline row by row and returns
// the regressions, sorted by key for stable output. Rows present in only
// one report are skipped (experiments come and go), as are rows that
// timed out in either run (their Seconds is the budget, not a
// measurement) and alloc comparisons where either side did not measure
// allocations.
func CompareReports(baseline, current Report, opts RatchetOptions) []Regression {
	opts = opts.withDefaults()
	base := make(map[string]Row, len(baseline.Rows))
	for _, r := range baseline.Rows {
		base[rowKey(r)] = r
	}
	var regs []Regression
	for _, cur := range current.Rows {
		prev, ok := base[rowKey(cur)]
		if !ok || prev.TimedOut || cur.TimedOut {
			continue
		}
		if cur.Seconds > opts.Factor*prev.Seconds+opts.Slack {
			regs = append(regs, Regression{
				Key: rowKey(cur), Metric: "seconds",
				Baseline: prev.Seconds, Current: cur.Seconds,
			})
		}
		if prev.Allocs > 0 && cur.Allocs > 0 &&
			float64(cur.Allocs) > opts.AllocFactor*float64(prev.Allocs)+float64(opts.AllocSlack) {
			regs = append(regs, Regression{
				Key: rowKey(cur), Metric: "allocs",
				Baseline: float64(prev.Allocs), Current: float64(cur.Allocs),
			})
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Key != regs[j].Key {
			return regs[i].Key < regs[j].Key
		}
		return regs[i].Metric < regs[j].Metric
	})
	return regs
}

// ReadReport loads a BENCH_*.json report from disk.
func ReadReport(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return Report{}, fmt.Errorf("parse %s: %w", path, err)
	}
	return r, nil
}
