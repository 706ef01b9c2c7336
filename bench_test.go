// Benchmarks of the paper's evaluation and the ablations called out in
// DESIGN.md. BenchmarkPaper runs every case of every experiment in
// internal/bench's table — the same cases dsdbench runs — as
//
//	BenchmarkPaper/<exp>/<dataset>/<algorithm>[/<param>]
//
// so `go test -run '^$' -bench 'Paper/exp1/' -benchmem` prints the Fig. 5
// series. Each case reports its row's density, iterations, timed_out and
// Extra counters as custom metrics. The graphs are the shared catalog
// models at benchScale; cmd/dsdbench renders the same experiments as text
// tables and the BENCH report.
package dsd_test

import (
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dds"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// benchScale keeps the slowest lineup members (PXY, PFW) inside the default
// one-second benchtime per sub-benchmark.
const benchScale = 0.05

// ddsBudget caps the hopeless DDS baselines the way the paper's 10⁵-second
// ceiling does; a budgeted run that hits it reports timed_out=1, and its
// per-op time is a floor, not a finishing time.
const ddsBudget = 500 * time.Millisecond

func BenchmarkPaper(b *testing.B) {
	cfg := bench.Config{Scale: benchScale, Budget: ddsBudget}
	for _, e := range bench.Experiments() {
		b.Run(e.Name, func(b *testing.B) {
			for _, c := range e.Cases(cfg) {
				b.Run(c.Name(), func(b *testing.B) {
					b.ReportAllocs()
					var row bench.Row
					for i := 0; i < b.N; i++ {
						row = c.Run()
					}
					b.ReportMetric(row.Density, "density")
					b.ReportMetric(float64(row.Iterations), "iterations")
					timedOut := 0.0
					if row.TimedOut {
						timedOut = 1
					}
					b.ReportMetric(timedOut, "timed_out")
					for k, v := range row.Extra {
						b.ReportMetric(float64(v), k)
					}
				})
			}
		})
	}
}

// BenchmarkAblationEarlyStop isolates Theorem 1's contribution: PKMC-Sync
// with the early stop against plain Local, the identical sweep run to full
// convergence, followed by reading the k*-core off the core numbers. The
// async case is PKMC's in-place sweep with its certified stop.
func BenchmarkAblationEarlyStop(b *testing.B) {
	b.ReportAllocs()
	for _, abbr := range []string{"EW", "SK"} {
		g := bench.Undirected(abbr, benchScale)
		for _, c := range []struct {
			name   string
			engine func(*graph.Undirected, int, *trace.Trace) core.PKMCResult
		}{{"with", core.PKMCSync}, {"async", core.PKMC}} {
			b.Run(abbr+"/"+c.name, func(b *testing.B) {
				b.ReportAllocs()
				var it int
				for i := 0; i < b.N; i++ {
					it = c.engine(g, 0, nil).Iterations
				}
				b.ReportMetric(float64(it), "iters")
			})
		}
		b.Run(abbr+"/without", func(b *testing.B) {
			b.ReportAllocs()
			var it int
			for i := 0; i < b.N; i++ {
				res := core.Local(g, 0, nil)
				core.KStarCore(res.CoreNum)
				it = res.Iterations
			}
			b.ReportMetric(float64(it), "iters")
		})
	}
}

// BenchmarkAblationWarmStart isolates the Remark's w⁰ = d_max warm start in
// the w*-subgraph computation: WStarSubgraph against WDecompose, the plain
// Algorithm 3 climbing from the global minimum weight.
func BenchmarkAblationWarmStart(b *testing.B) {
	b.ReportAllocs()
	for _, abbr := range []string{"BA", "WE"} {
		d := bench.Directed(abbr, benchScale)
		b.Run(abbr+"/with", func(b *testing.B) {
			b.ReportAllocs()
			var lv int
			for i := 0; i < b.N; i++ {
				lv = dds.WStarSubgraph(d, 0).Levels
			}
			b.ReportMetric(float64(lv), "levels")
		})
		b.Run(abbr+"/without", func(b *testing.B) {
			b.ReportAllocs()
			var lv int
			for i := 0; i < b.N; i++ {
				lv = dds.WDecompose(d, 0).Levels
			}
			b.ReportMetric(float64(lv), "levels")
		})
	}
}

// BenchmarkAblationGrainSize sweeps the dynamic-scheduling chunk size of
// the parallel-for runtime over an adjacency-touching kernel.
func BenchmarkAblationGrainSize(b *testing.B) {
	b.ReportAllocs()
	g := bench.Undirected("SK", benchScale)
	n := g.N()
	var want int64
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(int32(v)) {
			want += int64(u)
		}
	}
	for _, grain := range []int{64, 256, 1024, 4096, 16384} {
		b.Run("grain="+strconv.Itoa(grain), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var total atomic.Int64
				parallel.ForBlocks(n, 0, grain, func(lo, hi int) {
					var local int64
					for v := lo; v < hi; v++ {
						for _, u := range g.Neighbors(int32(v)) {
							local += int64(u)
						}
					}
					total.Add(local)
				})
				if got := total.Load(); got != want {
					b.Fatalf("grain %d: neighbor-id sum %d, want %d", grain, got, want)
				}
			}
		})
	}
}

// BenchmarkAblationDegreeOrder quantifies the locality effect of
// hub-first relabeling on the PKMC sweeps.
func BenchmarkAblationDegreeOrder(b *testing.B) {
	b.ReportAllocs()
	g := bench.Undirected("UN", benchScale)
	relabeled, _ := g.RelabelByDegree()
	b.Run("original", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.PKMC(g, 0, nil)
		}
	})
	b.Run("degree-ordered", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.PKMC(relabeled, 0, nil)
		}
	})
}
