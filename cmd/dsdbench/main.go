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
// The experiments are internal/bench's table (bench.Experiments), the same
// cases the root package's BenchmarkPaper runs: datasets (Tables 4/5),
// exp1..exp8 (Figs. 5-10, Tables 6-7), ratios, accuracy and live.
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

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dsdbench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	experiments := bench.Experiments()
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.Name
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
	var err error
	if cfg.ThreadSweep, err = positiveInts("threads", *threads); err != nil {
		return err
	}
	if cfg.MutBatches, err = positiveInts("mut-batches", *mutB); err != nil {
		return err
	}

	picked := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		e = strings.TrimSpace(e)
		if e != "all" && !slices.Contains(names, e) {
			return fmt.Errorf("unknown experiment %q (valid: all, %s)", e, strings.Join(names, ", "))
		}
		picked[e] = true
	}
	var selected []bench.Experiment
	for _, e := range experiments {
		if picked["all"] || picked[e.Name] {
			selected = append(selected, e)
		}
	}

	if *asJSON {
		return writeReport(w, cfg, selected, *outDir)
	}
	for _, e := range selected {
		rows := e.Rows(cfg)
		switch {
		case e.Render == bench.Catalog:
			bench.RenderCatalog(w, rows)
		case *chart && e.Render == bench.Bars:
			bench.RenderBars(w, e.Title, rows)
		case *chart && e.Render == bench.Series:
			bench.RenderSeries(w, e.Title, rows)
		default:
			bench.FormatRows(w, e.Title, rows)
		}
		if e.Fast != "" {
			printSpeedups(w, rows, e.Fast, e.Slows)
		}
	}
	return nil
}

// positiveInts parses flag name's comma-separated list of positive
// integers; an empty value yields nil, which Config reads as its default.
func positiveInts(name, value string) ([]int, error) {
	if value == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(value, ",") {
		var v int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &v); err != nil || v < 1 {
			return nil, fmt.Errorf("bad -%s entry %q", name, part)
		}
		out = append(out, v)
	}
	return out, nil
}

// writeReport runs the selected experiments and writes their rows as a
// BENCH_<timestamp>.json report into dir.
func writeReport(w io.Writer, cfg bench.Config, selected []bench.Experiment, dir string) error {
	var rows []bench.Row
	var ran []string
	for _, e := range selected {
		rows = append(rows, e.Rows(cfg)...)
		ran = append(ran, e.Name)
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
