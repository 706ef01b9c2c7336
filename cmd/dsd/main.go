// Command dsd runs a densest-subgraph algorithm on a graph file and prints
// the subgraph found.
//
// Usage:
//
//	dsd -in graph.txt [-directed] [-algo pkmc|local|pkc|bz|charikar|greedypp|pbu|pfw|fista|fracpeel|exact|exact-pruned]
//	    [-algo pwc|pxy|pbs|pfks|pbd|pfw|exact|exact-pruned] (directed families)
//	    [-p N] [-budget 30s] [-timeout 10s] [-verbose]
//	dsd -in graph.txt -mode replay -mutations stream.txt   # dynamic maintenance
//	dsd -algorithms [-json]                                # registered-algorithm catalog
//
// -budget caps the slow baselines and keeps their best-so-far answer;
// -timeout is a hard deadline — the run fails with a canceled error when
// the solver cannot finish in time.
//
// The input format is sniffed: a whitespace edge list ("u v" per line,
// '%'/'#' comments), the compact binary format written by dsdgen -binary,
// either optionally gzipped. For undirected runs the default algorithm is
// PKMC; for -directed it is PWC — the paper's two contributions.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"repro"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dsd:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dsd", flag.ContinueOnError)
	var (
		in       = fs.String("in", "", "input graph file (required)")
		directed = fs.Bool("directed", false, "treat the input as a digraph and solve DDS")
		algo     = fs.String("algo", "", "algorithm (default: pkmc undirected, pwc directed)")
		workers  = fs.Int("p", 0, "worker threads (0 = GOMAXPROCS)")
		budget   = fs.Duration("budget", 0, "time budget for slow baselines (0 = unlimited; best-so-far on expiry)")
		timeout  = fs.Duration("timeout", 0, "hard deadline for the solve; exceeding it is an error (0 = none)")
		verbose  = fs.Bool("verbose", false, "print the vertex sets, not just their sizes")
		mode     = fs.String("mode", "solve", "solve | cores (core-number histogram) | skyline (directed cn-pairs) | tiers (density-friendly decomposition) | replay (stream mutations, incremental repair)")
		muts     = fs.String("mutations", "", "mutation stream for -mode replay: one '+ u v' or '- u v' per line")
		list     = fs.Bool("algorithms", false, "list the registered algorithm catalog and exit")
		asJSON   = fs.Bool("json", false, "with -algorithms: emit the catalog as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		return listAlgorithms(*asJSON, out)
	}
	if *asJSON {
		return fmt.Errorf("-json applies only to -algorithms")
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	if *mode == "replay" {
		if *directed {
			return fmt.Errorf("-mode replay applies to undirected graphs")
		}
		if *muts == "" {
			return fmt.Errorf("-mode replay requires -mutations")
		}
		return replay(*in, *muts, *verbose, out)
	}

	opts := dsd.Options{Workers: *workers, Budget: *budget}
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		opts.Ctx = ctx
	}
	if *mode != "solve" {
		return analyze(*in, *mode, *directed, *workers, out)
	}
	start := time.Now()
	if *directed {
		d, err := dsd.LoadDigraph(*in)
		if err != nil {
			return err
		}
		loadTime := time.Since(start)
		start = time.Now()
		res, err := dsd.SolveDDS(d, dsd.Algo(*algo), opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "graph: n=%d m=%d (loaded in %v)\n", d.N(), d.M(), loadTime.Round(time.Millisecond))
		fmt.Fprintf(out, "algorithm: %s (%v)\n", res.Algorithm, time.Since(start).Round(time.Microsecond))
		fmt.Fprintf(out, "densest (S,T): |S|=%d |T|=%d density=%.6f", len(res.S), len(res.T), res.Density)
		if res.XStar > 0 {
			fmt.Fprintf(out, "  [x*=%d y*=%d]", res.XStar, res.YStar)
		}
		if res.TimedOut {
			fmt.Fprintf(out, "  (budget exhausted: best-so-far)")
		}
		fmt.Fprintln(out)
		if *verbose {
			fmt.Fprintf(out, "S = %v\nT = %v\n", res.S, res.T)
		}
		return nil
	}

	g, err := dsd.LoadGraph(*in)
	if err != nil {
		return err
	}
	loadTime := time.Since(start)
	start = time.Now()
	res, err := dsd.SolveUDS(g, dsd.Algo(*algo), opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "graph: n=%d m=%d (loaded in %v)\n", g.N(), g.M(), loadTime.Round(time.Millisecond))
	fmt.Fprintf(out, "algorithm: %s (%v)\n", res.Algorithm, time.Since(start).Round(time.Microsecond))
	fmt.Fprintf(out, "densest subgraph: |S|=%d density=%.6f", len(res.Vertices), res.Density)
	if res.KStar > 0 {
		fmt.Fprintf(out, "  [k*=%d]", res.KStar)
	}
	fmt.Fprintln(out)
	if *verbose {
		fmt.Fprintf(out, "S = %v\n", res.Vertices)
	}
	return nil
}

// listAlgorithms prints the registered solver catalog — the same registry
// SolveUDS/SolveDDS dispatch from, so the listing can never drift from
// what the binary actually runs. JSON output carries the full descriptors
// keyed by family; the text form is a compact table plus guarantees.
func listAlgorithms(asJSON bool, out io.Writer) error {
	if asJSON {
		catalog := map[string][]dsd.AlgorithmInfo{
			"uds": dsd.Algorithms(dsd.ProblemUDS),
			"dds": dsd.Algorithms(dsd.ProblemDDS),
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(catalog)
	}
	for _, problem := range []dsd.Problem{dsd.ProblemUDS, dsd.ProblemDDS} {
		fmt.Fprintf(out, "%s algorithms (default %s):\n", strings.ToUpper(string(problem)), dsd.DefaultAlgorithm(problem))
		tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		for _, info := range dsd.Algorithms(problem) {
			var marks []string
			if info.Default {
				marks = append(marks, "default")
			}
			if info.Degradable {
				marks = append(marks, "degradable")
			}
			if info.DegradeRank > 0 {
				marks = append(marks, fmt.Sprintf("ladder rung %d", info.DegradeRank))
			}
			if info.Serial {
				marks = append(marks, "serial")
			}
			if info.Budgeted {
				marks = append(marks, "budgeted")
			}
			fmt.Fprintf(tw, "  %s\t%s\t%s\t%s\n", info.Name, info.Display, info.Grade, strings.Join(marks, ", "))
			fmt.Fprintf(tw, "  \t%s\t\t\n", info.Guarantee)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// replay streams a mutation file through the incremental maintenance
// structure: each "+ u v" / "- u v" line repairs the core decomposition in
// O(changed neighborhood), and the standing 2-approximate densest subgraph
// is read off at the end without any from-scratch solve.
func replay(graphPath, mutPath string, verbose bool, out io.Writer) error {
	g, err := dsd.LoadGraph(graphPath)
	if err != nil {
		return err
	}
	f, err := os.Open(mutPath)
	if err != nil {
		return err
	}
	defer f.Close()

	dg := dsd.NewDynamicGraph(g)
	start := time.Now()
	var applied, noops, touched int64
	line := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		var op string
		var u, v int32
		if _, err := fmt.Sscanf(text, "%1s %d %d", &op, &u, &v); err != nil {
			return fmt.Errorf("%s:%d: bad mutation %q (want '+ u v' or '- u v')", mutPath, line, text)
		}
		if u < 0 || v < 0 || int(u) >= dg.N() || int(v) >= dg.N() {
			return fmt.Errorf("%s:%d: vertex out of range [0, %d)", mutPath, line, dg.N())
		}
		var ok bool
		var changed int
		switch op {
		case "+":
			ok, changed = dg.ApplyInsert(u, v)
		case "-":
			ok, changed = dg.ApplyDelete(u, v)
		default:
			return fmt.Errorf("%s:%d: bad op %q (want '+' or '-')", mutPath, line, op)
		}
		if ok {
			applied++
			touched += int64(changed)
		} else {
			noops++
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	elapsed := time.Since(start)

	snap := dg.Snapshot()
	res := dg.DensestSubgraph()
	fmt.Fprintf(out, "replay: %d mutations applied, %d no-ops, %d core numbers touched (%v)\n",
		applied, noops, touched, elapsed.Round(time.Microsecond))
	fmt.Fprintf(out, "graph now: n=%d m=%d\n", snap.N(), snap.M())
	fmt.Fprintf(out, "algorithm: %s\n", res.Algorithm)
	fmt.Fprintf(out, "densest subgraph: |S|=%d density=%.6f  [k*=%d]\n", len(res.Vertices), res.Density, res.KStar)
	if verbose {
		fmt.Fprintf(out, "S = %v\n", res.Vertices)
	}
	return nil
}

// analyze handles the non-solve inspection modes.
func analyze(path, mode string, directed bool, workers int, out io.Writer) error {
	switch mode {
	case "cores":
		if directed {
			return fmt.Errorf("-mode cores applies to undirected graphs")
		}
		g, err := dsd.LoadGraph(path)
		if err != nil {
			return err
		}
		cores := dsd.CoreNumbers(g, workers)
		hist := map[int32]int{}
		var kstar int32
		for _, c := range cores {
			hist[c]++
			if c > kstar {
				kstar = c
			}
		}
		fmt.Fprintf(out, "core decomposition: n=%d k*=%d\n", g.N(), kstar)
		for k := int32(0); k <= kstar; k++ {
			if hist[k] > 0 {
				fmt.Fprintf(out, "  core %4d: %d vertices\n", k, hist[k])
			}
		}
		return nil
	case "skyline":
		if !directed {
			return fmt.Errorf("-mode skyline requires -directed")
		}
		d, err := dsd.LoadDigraph(path)
		if err != nil {
			return err
		}
		sky := dsd.CNPairSkyline(d, workers)
		fmt.Fprintf(out, "cn-pair skyline (%d maximal cores):\n", len(sky))
		var best int64
		for _, pr := range sky {
			fmt.Fprintf(out, "  [%d, %d] (x*y = %d)\n", pr[0], pr[1], int64(pr[0])*int64(pr[1]))
			if p := int64(pr[0]) * int64(pr[1]); p > best {
				best = p
			}
		}
		fmt.Fprintf(out, "w* = %d\n", best)
		return nil
	case "tiers":
		if directed {
			return fmt.Errorf("-mode tiers applies to undirected graphs")
		}
		g, err := dsd.LoadGraph(path)
		if err != nil {
			return err
		}
		tiers := dsd.DensityFriendlyDecomposition(g, workers)
		fmt.Fprintf(out, "density-friendly decomposition (%d tiers):\n", len(tiers))
		for i, tier := range tiers {
			fmt.Fprintf(out, "  tier %d: %d vertices @ density %.4f\n", i+1, len(tier.Vertices), tier.Density)
		}
		return nil
	default:
		return fmt.Errorf("unknown -mode %q (solve | cores | skyline | tiers)", mode)
	}
}
