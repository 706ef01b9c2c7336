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
// "."). The schema is documented in DESIGN.md.
//
// -baseline <BENCH_*.json> (with -json) turns the run into a perf ratchet:
// after writing the fresh report it is compared row by row against the
// baseline report, and any row whose wall time or allocation count
// regressed past the thresholds (-ratchet-factor/-ratchet-slack for
// seconds, -ratchet-alloc-factor/-ratchet-alloc-slack for allocs) makes
// the process exit nonzero. Reports from different machines, toolchains,
// or runtime configurations (GOMAXPROCS, GOGC, scale, workers) are
// incomparable; the ratchet then notes why and passes, so a committed
// baseline from another host never blocks CI.
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
)

// experiments lists the valid -exp names ("all" selects every one).
var experiments = []string{
	"datasets", "exp1", "exp2", "exp3", "exp4", "exp5", "exp6", "exp7", "exp8",
	"ratios", "accuracy", "live",
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dsdbench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("dsdbench", flag.ContinueOnError)
	var (
		exps    = fs.String("exp", "all", "comma-separated experiments (all | "+strings.Join(experiments, " | ")+")")
		scale   = fs.Float64("scale", 0.1, "dataset scale multiplier")
		workers = fs.Int("p", 0, "default thread count (0 = GOMAXPROCS)")
		budget  = fs.Duration("budget", 30*time.Second, "per-run budget for slow baselines")
		threads = fs.String("threads", "", "comma-separated thread sweep for exp3/exp7 (default 1,2,4,8)")
		mutB    = fs.String("mut-batches", "", "comma-separated mutation batch sizes for the live replay (default 1,16,128,1024)")
		chart   = fs.Bool("chart", false, "render figures as ASCII charts instead of tables")
		asJSON  = fs.Bool("json", false, "write a versioned BENCH_<timestamp>.json report instead of tables (overrides -chart)")
		outDir  = fs.String("out", ".", "directory for the -json report file")

		baseline    = fs.String("baseline", "", "BENCH_*.json report to ratchet against (requires -json); exits nonzero on regression")
		rFactor     = fs.Float64("ratchet-factor", 0, "wall-time regression factor (0 = default 1.5)")
		rSlack      = fs.Float64("ratchet-slack", 0, "wall-time absolute slack in seconds (0 = default 0.05)")
		rAllocs     = fs.Float64("ratchet-alloc-factor", 0, "allocation regression factor (0 = default 2)")
		rAllocSlack = fs.Int64("ratchet-alloc-slack", 0, "allocation absolute slack (0 = default 10000)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *baseline != "" && !*asJSON {
		return fmt.Errorf("-baseline requires -json (the ratchet compares report artifacts)")
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

	selected := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		e = strings.TrimSpace(e)
		if e != "all" && !slices.Contains(experiments, e) {
			return fmt.Errorf("unknown experiment %q (valid: all, %s)", e, strings.Join(experiments, ", "))
		}
		selected[e] = true
	}
	runAll := selected["all"]
	run := func(name string) bool { return runAll || selected[name] }

	if *asJSON {
		var all []bench.Row
		var ran []string
		collect := func(name string, f func(bench.Config) []bench.Row) {
			if run(name) {
				all = append(all, f(cfg)...)
				ran = append(ran, name)
			}
		}
		collect("datasets", bench.DatasetRows)
		collect("exp1", bench.Exp1)
		collect("exp2", bench.Exp2)
		collect("exp3", bench.Exp3)
		collect("exp4", bench.Exp4)
		collect("exp5", bench.Exp5)
		collect("exp6", bench.Exp6)
		collect("exp7", bench.Exp7)
		collect("exp8", bench.Exp8)
		collect("ratios", bench.Ratios)
		collect("accuracy", bench.Accuracy)
		collect("live", bench.LiveReplay)
		now := time.Now()
		report := bench.NewReport(cfg, ran, all, now)
		path := filepath.Join(*outDir, bench.ReportFilename(now))
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
		if *baseline != "" {
			opts := bench.RatchetOptions{
				Factor: *rFactor, Slack: *rSlack,
				AllocFactor: *rAllocs, AllocSlack: *rAllocSlack,
			}
			return ratchet(w, *baseline, report, opts)
		}
		return nil
	}

	if run("datasets") {
		bench.Datasets(w, cfg)
	}
	if run("exp1") {
		rows := bench.Exp1(cfg)
		if *chart {
			bench.RenderBars(w, "Exp-1 / Fig. 5: UDS efficiency", rows)
		} else {
			bench.FormatRows(w, "Exp-1 / Fig. 5: UDS efficiency", rows)
		}
		printSpeedups(w, rows, "PKMC", []string{"PBU", "Local", "PKC", "PFW"})
	}
	if run("exp2") {
		bench.FormatRows(w, "Exp-2 / Table 6: core-algorithm iteration counts", bench.Exp2(cfg))
	}
	if run("exp3") {
		if *chart {
			bench.RenderSeries(w, "Exp-3 / Fig. 6: UDS runtime vs threads", bench.Exp3(cfg))
		} else {
			bench.FormatRows(w, "Exp-3 / Fig. 6: UDS runtime vs threads", bench.Exp3(cfg))
		}
	}
	if run("exp4") {
		if *chart {
			bench.RenderSeries(w, "Exp-4 / Fig. 7: UDS scalability vs edge fraction", bench.Exp4(cfg))
		} else {
			bench.FormatRows(w, "Exp-4 / Fig. 7: UDS scalability vs edge fraction", bench.Exp4(cfg))
		}
	}
	if run("exp5") {
		rows := bench.Exp5(cfg)
		if *chart {
			bench.RenderBars(w, "Exp-5 / Fig. 8: DDS efficiency", rows)
		} else {
			bench.FormatRows(w, "Exp-5 / Fig. 8: DDS efficiency (* = budget exhausted)", rows)
		}
		printSpeedups(w, rows, "PWC", []string{"PXY", "PBD", "PFW"})
	}
	if run("exp6") {
		bench.FormatRows(w, "Exp-6 / Table 7: arcs processed by PXY vs PWC", bench.Exp6(cfg))
	}
	if run("exp7") {
		if *chart {
			bench.RenderSeries(w, "Exp-7 / Fig. 9: DDS runtime vs threads", bench.Exp7(cfg))
		} else {
			bench.FormatRows(w, "Exp-7 / Fig. 9: DDS runtime vs threads", bench.Exp7(cfg))
		}
	}
	if run("exp8") {
		if *chart {
			bench.RenderSeries(w, "Exp-8 / Fig. 10: DDS scalability vs edge fraction", bench.Exp8(cfg))
		} else {
			bench.FormatRows(w, "Exp-8 / Fig. 10: DDS scalability vs edge fraction", bench.Exp8(cfg))
		}
	}
	if run("ratios") {
		bench.FormatRows(w, "Approximation ratios vs exact (ratio_x1000 = 1000·ρ*/ρ)", bench.Ratios(cfg))
	}
	if run("accuracy") {
		bench.FormatRows(w, "Accuracy vs time: FISTA / FracPeel / Greedy++ across iteration budgets", bench.Accuracy(cfg))
	}
	if run("live") {
		bench.FormatRows(w, "Live replay: incremental k*-core repair vs full BZ recompute (per-batch mean seconds)", bench.LiveReplay(cfg))
	}
	return nil
}

// ratchet compares the fresh report against the stored baseline and
// returns an error (nonzero exit) when any row regressed. Incomparable
// baselines — a different machine, toolchain, or runtime configuration —
// are noted and skipped rather than failed, so a committed fallback
// baseline generated elsewhere degrades to a no-op instead of noise. A
// comparable baseline that shares no rows with the run (another
// experiment's report) is an error: it would otherwise pass vacuously.
func ratchet(w io.Writer, path string, current bench.Report, opts bench.RatchetOptions) error {
	base, err := bench.ReadReport(path)
	if err != nil {
		return fmt.Errorf("ratchet baseline: %w", err)
	}
	if ok, why := bench.Comparable(base, current); !ok {
		fmt.Fprintf(w, "ratchet: baseline %s is not comparable to this run (%s); skipping\n", path, why)
		return nil
	}
	if bench.SharedRows(base, current) == 0 {
		return fmt.Errorf("baseline %s shares no rows with this run (experiments %v vs %v)",
			path, base.Selected, current.Selected)
	}
	regs := bench.CompareReports(base, current, opts)
	if len(regs) == 0 {
		fmt.Fprintf(w, "ratchet: no regressions against %s\n", path)
		return nil
	}
	for _, r := range regs {
		fmt.Fprintf(w, "ratchet: REGRESSION %s\n", r)
	}
	return fmt.Errorf("%d row(s) regressed against baseline %s", len(regs), path)
}

func printSpeedups(w io.Writer, rows []bench.Row, fast string, slows []string) {
	for _, slow := range slows {
		sp := bench.Speedup(rows, fast, slow)
		if len(sp) == 0 {
			continue
		}
		fmt.Fprintf(w, "speedup %s vs %s:", fast, slow)
		for _, ds := range []string{"PT", "EW", "EU", "IT", "SK", "UN", "AM", "AR", "BA", "DL", "WE", "TW"} {
			if v, ok := sp[ds]; ok {
				fmt.Fprintf(w, " %s=%.1fx", ds, v)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}
