// Command dsdbench regenerates the paper's evaluation tables and figures
// on the synthetic dataset scale models.
//
// Usage:
//
//	dsdbench                          # run everything at scale 0.1
//	dsdbench -exp exp1,exp2           # selected experiments
//	dsdbench -exp exp5 -scale 0.25 -budget 60s -p 4
//	dsdbench -exp datasets            # just Tables 4 and 5
//	dsdbench -json -exp datasets -scale 0.01   # machine-readable artifact
//
// Experiments: datasets (Tables 4/5), exp1 (Fig 5), exp2 (Table 6),
// exp3 (Fig 6), exp4 (Fig 7), exp5 (Fig 8), exp6 (Table 7), exp7 (Fig 9),
// exp8 (Fig 10), ratios (approximation quality vs exact — every registered
// non-exact solver), accuracy (FISTA / FracPeel / Greedy++ density vs time
// across iteration budgets), live (mutation replay: incremental k*-core
// repair vs full BZ recompute per batch size, -mut-batches to pick the
// sizes).
//
// -json switches from rendered tables to the versioned benchmark artifact:
// a BENCH_<timestamp>.json file (schema_version, run metadata, measurement
// rows with per-row allocation counts, and full PKMC/PWC solver traces
// with per-phase timings and iteration logs) written to -out (default
// "."). The schema is documented in DESIGN.md. The report describes one
// run; wall-time comparisons between commits belong to perfbench, and the
// machine-independent work counters are pinned by the root package's
// TestWorkCounters.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/gen"
)

// render names how text mode draws an experiment.
type render int

const (
	table   render = iota // bench.FormatRows
	bars                  // bench.RenderBars under -chart, else a table
	series                // bench.RenderSeries under -chart, else a table
	catalog               // bench.Datasets: Tables 4/5 next to the paper's sizes
)

// experiment is one -exp entry. Its rows make the -json report; its
// renderer and optional speedup lineup (fast against each of slows) make
// the text output.
type experiment struct {
	name   string
	title  string
	rows   func(bench.Config) []bench.Row
	render render
	fast   string
	slows  []string
}

// experiments is every valid -exp name ("all" selects every one), in run
// order.
var experiments = []experiment{
	{name: "datasets", rows: bench.DatasetRows, render: catalog},
	{name: "exp1", title: "Exp-1 / Fig. 5: UDS efficiency", rows: bench.Exp1, render: bars,
		fast: "PKMC", slows: []string{"PBU", "Local", "PKC", "PFW"}},
	{name: "exp2", title: "Exp-2 / Table 6: core-algorithm iteration counts", rows: bench.Exp2},
	{name: "exp3", title: "Exp-3 / Fig. 6: UDS runtime vs threads", rows: bench.Exp3, render: series},
	{name: "exp4", title: "Exp-4 / Fig. 7: UDS scalability vs edge fraction", rows: bench.Exp4, render: series},
	{name: "exp5", title: "Exp-5 / Fig. 8: DDS efficiency (* = budget exhausted)", rows: bench.Exp5, render: bars,
		fast: "PWC", slows: []string{"PXY", "PBD", "PFW"}},
	{name: "exp6", title: "Exp-6 / Table 7: arcs processed by PXY vs PWC", rows: bench.Exp6},
	{name: "exp7", title: "Exp-7 / Fig. 9: DDS runtime vs threads", rows: bench.Exp7, render: series},
	{name: "exp8", title: "Exp-8 / Fig. 10: DDS scalability vs edge fraction", rows: bench.Exp8, render: series},
	{name: "ratios", title: "Approximation ratios vs exact (ratio_x1000 = 1000·ρ*/ρ)", rows: bench.Ratios},
	{name: "accuracy", title: "Accuracy vs time: FISTA / FracPeel / Greedy++ across iteration budgets", rows: bench.Accuracy},
	{name: "live", title: "Live replay: incremental k*-core repair vs full BZ recompute (per-batch mean seconds)", rows: bench.LiveReplay},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dsdbench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	fs := flag.NewFlagSet("dsdbench", flag.ContinueOnError)
	var (
		exps    = fs.String("exp", "all", "comma-separated experiments (all | "+strings.Join(names, " | ")+")")
		scale   = fs.Float64("scale", 0.1, "dataset scale multiplier")
		workers = fs.Int("p", 0, "default thread count (0 = GOMAXPROCS)")
		budget  = fs.Duration("budget", 30*time.Second, "per-run budget for slow baselines")
		threads = fs.String("threads", "", "comma-separated thread sweep for exp3/exp7 (default 1,2,4,8)")
		mutB    = fs.String("mut-batches", "", "comma-separated mutation batch sizes for the live replay (default 1,16,128,1024)")
		chart   = fs.Bool("chart", false, "render figures as ASCII charts instead of tables")
		asJSON  = fs.Bool("json", false, "write a versioned BENCH_<timestamp>.json report instead of tables (overrides -chart)")
		outDir  = fs.String("out", ".", "directory for the -json report file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := bench.Config{Scale: *scale, Workers: *workers, Budget: *budget}
	if *threads != "" {
		for _, part := range strings.Split(*threads, ",") {
			var p int
			if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &p); err != nil || p < 1 {
				return fmt.Errorf("bad -threads entry %q", part)
			}
			cfg.ThreadSweep = append(cfg.ThreadSweep, p)
		}
	}
	if *mutB != "" {
		for _, part := range strings.Split(*mutB, ",") {
			var b int
			if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &b); err != nil || b < 1 {
				return fmt.Errorf("bad -mut-batches entry %q", part)
			}
			cfg.MutBatches = append(cfg.MutBatches, b)
		}
	}

	picked := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		e = strings.TrimSpace(e)
		if e != "all" && !slices.Contains(names, e) {
			return fmt.Errorf("unknown experiment %q (valid: all, %s)", e, strings.Join(names, ", "))
		}
		picked[e] = true
	}
	var selected []experiment
	for _, e := range experiments {
		if picked["all"] || picked[e.name] {
			selected = append(selected, e)
		}
	}

	if *asJSON {
		return writeReport(w, cfg, selected, *outDir)
	}
	for _, e := range selected {
		if e.render == catalog {
			bench.Datasets(w, cfg)
			continue
		}
		rows := e.rows(cfg)
		switch {
		case *chart && e.render == bars:
			bench.RenderBars(w, e.title, rows)
		case *chart && e.render == series:
			bench.RenderSeries(w, e.title, rows)
		default:
			bench.FormatRows(w, e.title, rows)
		}
		if e.fast != "" {
			printSpeedups(w, rows, e.fast, e.slows)
		}
	}
	return nil
}

// writeReport runs the selected experiments and writes their rows as a
// BENCH_<timestamp>.json report into dir.
func writeReport(w io.Writer, cfg bench.Config, selected []experiment, dir string) error {
	var rows []bench.Row
	var ran []string
	for _, e := range selected {
		rows = append(rows, e.rows(cfg)...)
		ran = append(ran, e.name)
	}
	now := time.Now()
	report := bench.NewReport(cfg, ran, rows, now)
	path := filepath.Join(dir, bench.ReportFilename(now))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := bench.WriteReport(f, report); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s (%d rows, %d traces)\n", path, len(report.Rows), len(report.Traces))
	return nil
}

// printSpeedups prints, per slow algorithm, how many times faster fast ran
// on each dataset, in catalog order. A timed-out slow row's Seconds is
// only the budget, so its ratio is a lower bound and prints with ">", as
// FormatRows marks the row.
func printSpeedups(w io.Writer, rows []bench.Row, fast string, slows []string) {
	for _, slow := range slows {
		sp := bench.Speedup(rows, fast, slow)
		if len(sp) == 0 {
			continue
		}
		fmt.Fprintf(w, "speedup %s vs %s:", fast, slow)
		for _, ds := range gen.DatasetAbbrs() {
			v, ok := sp[ds]
			if !ok {
				continue
			}
			bound := ""
			if slices.ContainsFunc(rows, func(r bench.Row) bool {
				return r.Dataset == ds && r.Algorithm == slow && r.TimedOut
			}) {
				bound = ">"
			}
			fmt.Fprintf(w, " %s=%s%.1fx", ds, bound, v)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}
