// Command perfbench is the repository's benchmark: it runs one workload,
// checks every answer the program gives, and prints each metric by name
// with its unit, ending with one JSON result line.
//
//	bash perfbench/run.sh --workload uds-solve --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 30 --trace 1 --spans spans.json
//	bash perfbench/run.sh --compare parent.jsonl change.jsonl
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Exit codes beyond 0.
const (
	exitWrong   = 1 // the program gave a wrong answer (result printed, correct=false)
	exitUsage   = 2 // bad flags, spec mismatch, or an error running the workload
	exitInvalid = 3 // the load generator could not keep its schedule; no result printed
)

// buildDir holds everything a run writes; the repository ignores it.
// Tests point it at a temporary directory.
var buildDir = ".bench_build"

// runCtx is what a workload receives for one run.
type runCtx struct {
	seed    int64
	seconds float64
	traced  bool
	rec     *recorder // nil unless traced
	workDir string    // scratch space for input files, removed after the run
	nproc   int
	log     io.Writer
}

// outcome is what a workload reports back.
type outcome struct {
	attempted, failed int
	wrong             []string // first few wrong-answer descriptions
	nWrong            int
	values            map[string]float64
	notes             []string // human-readable context: sample counts, percentiles used
	invalid           string   // non-empty: the run does not count
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

func (o *outcome) wrongf(format string, a ...any) {
	o.nWrong++
	if len(o.wrong) < 10 {
		o.wrong = append(o.wrong, fmt.Sprintf(format, a...))
	}
}

func (o *outcome) notef(format string, a ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, a...))
}

// fillLayers reports 0 for every per-layer metric under the given
// prefixes that the workload did not measure: layers it never reaches.
func (o *outcome) fillLayers(prefixes ...string) {
	for _, m := range layerMetrics {
		for _, p := range prefixes {
			if _, ok := o.values[m.name]; !ok && strings.HasPrefix(m.name, p) {
				o.values[m.name] = 0
			}
		}
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*runCtx) (*outcome, error){
	"uds-solve":  runUDSSolve,
	"dds-solve":  runDDSSolve,
	"serve-mix":  runServeMix,
	"live-churn": runLiveChurn,
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 30, "measured duration of the run")
	traceFlag := fs.Int("trace", 0, "1 = traced run: per-layer metrics and a span file instead of end-to-end metrics")
	spansPath := fs.String("spans", "", "span file of a traced run (default "+buildDir+"/spans-<workload>-<seed>.json)")
	appendPath := fs.String("append", "", "also append the result, tagged with workload, seed and trace, to this JSON-lines file")
	compare := fs.Bool("compare", false, "compare two JSON-lines files written by -append: -compare parent.jsonl change.jsonl")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark declaration (metric names, units, bounds)")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	sp, err := loadSpec(*specPath)
	if err == nil {
		err = sp.checkCatalog()
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return exitUsage
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare takes two files: parent.jsonl change.jsonl")
			return exitUsage
		}
		return runCompare(sp, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s), -seconds > 0 and -trace 0 or 1\n",
			strings.Join(workloadNames(), ", "))
		return exitUsage
	}
	res, code, err := runWorkload(run, *workload, *seed, *seconds, *traceFlag == 1, *spansPath, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return code
	}
	if *appendPath != "" {
		if err := appendResult(*appendPath, *workload, *seed, *traceFlag, res); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return exitUsage
		}
	}
	return code
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runWorkload runs one workload and prints its metrics and result line.
// On success it returns the printed result and the exit code (0, or
// exitWrong after a wrong answer).
func runWorkload(run func(*runCtx) (*outcome, error), name string, seed int64, seconds float64,
	traced bool, spansPath string, stdout, stderr io.Writer) (*result, int, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, exitUsage, err
	}
	work, err := os.MkdirTemp(buildDir, "work-")
	if err != nil {
		return nil, exitUsage, err
	}
	defer os.RemoveAll(work)
	c := &runCtx{seed: seed, seconds: seconds, traced: traced, workDir: work,
		nproc: runtime.NumCPU(), log: stderr}
	if traced {
		c.rec = newRecorder()
	}
	fmt.Fprintf(stderr, "perfbench: workload=%s seed=%d seconds=%g traced=%v nproc=%d GOMAXPROCS=%d\n",
		name, seed, seconds, traced, c.nproc, runtime.GOMAXPROCS(0))
	o, err := run(c)
	if err != nil {
		return nil, exitUsage, fmt.Errorf("%s: %w", name, err)
	}
	if o.invalid != "" {
		return nil, exitInvalid, fmt.Errorf("%s: run invalid: %s", name, o.invalid)
	}
	if traced {
		if spansPath == "" {
			spansPath = filepath.Join(buildDir, fmt.Sprintf("spans-%s-%d.json", name, seed))
		}
		if err := c.rec.writeFile(spansPath, name, seed); err != nil {
			return nil, exitUsage, err
		}
		fmt.Fprintf(stderr, "perfbench: spans written to %s\n", spansPath)
	}
	defs := e2eMetrics
	if traced {
		defs = layerMetrics
	}
	res := &result{Correct: o.nWrong == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: map[string]valueUnit{}}
	for _, m := range defs {
		v, ok := o.values[m.name]
		if !ok {
			return nil, exitUsage, fmt.Errorf("%s: metric %s was not measured", name, m.name)
		}
		res.Metrics[m.name] = valueUnit{Value: v, Unit: m.unit}
	}
	if len(o.values) != len(defs) {
		return nil, exitUsage, fmt.Errorf("%s: reported %d metrics, the catalog declares %d", name, len(o.values), len(defs))
	}
	if res.Attempted < 1 {
		return nil, exitUsage, errors.New(name + ": no operation was attempted")
	}
	for _, n := range o.notes {
		fmt.Fprintln(stdout, "#", n)
	}
	for _, m := range defs {
		fmt.Fprintf(stdout, "%-28s %14.4f %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
	for _, w := range o.wrong {
		fmt.Fprintln(stderr, "perfbench: WRONG ANSWER:", w)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, exitUsage, err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return res, exitWrong, nil
	}
	return res, 0, nil
}

// taggedResult is one line of a results file written by -append.
type taggedResult struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    int     `json:"trace"`
	Result   *result `json:"result"`
}

func appendResult(path, workload string, seed int64, trace int, res *result) error {
	b, err := json.Marshal(taggedResult{workload, seed, trace, res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("appending result: %w", err)
	}
	return f.Close()
}
