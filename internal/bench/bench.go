package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Config tunes a harness run.
type Config struct {
	// Scale multiplies the DESIGN.md dataset sizes; 0 defaults to 0.1,
	// which keeps the slowest baseline (PXY) within seconds per dataset.
	Scale float64
	// Workers is the default thread count p for parallel algorithms; 0
	// means GOMAXPROCS. The paper's default is 32 on an 80-thread box.
	Workers int
	// Budget caps each single algorithm run, mirroring the paper's
	// 10⁵-second bar ceiling; 0 defaults to 30s.
	Budget time.Duration
	// ThreadSweep lists the p values of Exp-3/Exp-7; empty defaults to
	// {1, 2, 4, 8}. (The paper sweeps 1..64 on 40 physical cores; measured
	// speedups here saturate at the host's core count.)
	ThreadSweep []int
	// Fractions lists the edge fractions of Exp-4/Exp-8; empty defaults to
	// the paper's {0.2, 0.4, 0.6, 0.8, 1.0}.
	Fractions []float64
	// MutBatches lists the mutation batch sizes of the live replay
	// experiment; empty defaults to {1, 16, 128, 1024}, spanning the
	// incremental-repair-vs-full-recompute crossover.
	MutBatches []int
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.1
	}
	if c.Budget <= 0 {
		c.Budget = 30 * time.Second
	}
	if len(c.ThreadSweep) == 0 {
		c.ThreadSweep = []int{1, 2, 4, 8}
	}
	if len(c.Fractions) == 0 {
		c.Fractions = []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	}
	if len(c.MutBatches) == 0 {
		c.MutBatches = []int{1, 16, 128, 1024}
	}
	return c
}

// Row is one measurement: an algorithm run on a dataset under a parameter.
// The JSON tags are the wire names of the BENCH_*.json report (see Report);
// they are part of the schema and change only with SchemaVersion.
type Row struct {
	Experiment string  `json:"experiment"`
	Dataset    string  `json:"dataset"`
	Algorithm  string  `json:"algorithm"`
	Param      string  `json:"param,omitempty"` // threads ("p=4"), fraction ("20%"), or empty
	Seconds    float64 `json:"seconds"`
	TimedOut   bool    `json:"timed_out,omitempty"`
	Density    float64 `json:"density"`
	Iterations int     `json:"iterations,omitempty"`
	// Allocs is the heap-allocation count of the measured run (Mallocs
	// delta), descriptive only: pooled scratch makes a process's first
	// run allocate more than later ones. Zero means "not measured" (e.g.
	// averaged multi-run rows).
	Allocs int64            `json:"allocs,omitempty"`
	Extra  map[string]int64 `json:"extra,omitempty"` // experiment-specific counters
}

// Case is one cell of an experiment: one algorithm run on one dataset
// under one parameter. Run does the work once and returns the row's
// measurements (density, iterations, timed_out, Extra); the front end
// labels and times it — Experiment.Rows for dsdbench, a b.N loop for
// BenchmarkPaper.
type Case struct {
	Dataset, Algorithm, Param string
	Run                       func() Row
	// SelfTimed marks a Run that reports an inner timing in Seconds
	// (live's per-batch means); Rows keeps it instead of timing the run.
	SelfTimed bool
}

// Name is the case's sub-benchmark name: dataset/algorithm[/param].
func (c Case) Name() string {
	name := c.Dataset + "/" + c.Algorithm
	if c.Param != "" {
		name += "/" + c.Param
	}
	return name
}

// FormatRows renders rows grouped by dataset in a fixed-width table, one
// line per (dataset, algorithm, param).
func FormatRows(w io.Writer, title string, rows []Row) {
	fmt.Fprintf(w, "== %s ==\n", title)
	if len(rows) == 0 {
		fmt.Fprintln(w, "(no rows)")
		return
	}
	fmt.Fprintf(w, "%-8s %-10s %-8s %12s %12s %6s\n", "dataset", "algorithm", "param", "seconds", "density", "iters")
	for _, r := range rows {
		sec := fmt.Sprintf("%.4f", r.Seconds)
		if r.TimedOut {
			sec = ">" + sec + "*"
		}
		fmt.Fprintf(w, "%-8s %-10s %-8s %12s %12.4f %6d", r.Dataset, r.Algorithm, r.Param, sec, r.Density, r.Iterations)
		if len(r.Extra) > 0 {
			keys := make([]string, 0, len(r.Extra))
			for k := range r.Extra {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			var parts []string
			for _, k := range keys {
				parts = append(parts, fmt.Sprintf("%s=%d", k, r.Extra[k]))
			}
			fmt.Fprintf(w, "  [%s]", strings.Join(parts, " "))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// Speedup summarizes, per dataset, how much faster `fast` is than `slow`
// among the given rows — the headline numbers of Exp-1 and Exp-5.
func Speedup(rows []Row, fast, slow string) map[string]float64 {
	fastT := map[string]float64{}
	slowT := map[string]float64{}
	for _, r := range rows {
		switch r.Algorithm {
		case fast:
			fastT[r.Dataset] = r.Seconds
		case slow:
			slowT[r.Dataset] = r.Seconds
		}
	}
	out := map[string]float64{}
	for ds, ft := range fastT {
		if st, ok := slowT[ds]; ok && ft > 0 {
			out[ds] = st / ft
		}
	}
	return out
}
