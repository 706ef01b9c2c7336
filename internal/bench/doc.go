// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Section VI) on the synthetic scale
// models: Tables 4/5 (datasets), Exp-1..4 for UDS (Fig. 5, Table 6, Fig. 6,
// Fig. 7) and Exp-5..8 for DDS (Fig. 8, Table 7, Fig. 9, Fig. 10), plus an
// extra approximation-ratio experiment the paper defers to prior work.
//
// Experiments holds the one table of experiments. Each expands into cases
// (dataset, algorithm, param) that dsdbench runs once and the root
// package's BenchmarkPaper runs b.N times, so both report the same rows
// the paper does. Absolute times are not comparable to the
// paper's dual-Xeon testbed — the scale models are ~1/1000 of the original
// datasets — but the comparison shape (who wins, by what rough factor,
// where baselines blow the budget) is the reproduction target; see
// EXPERIMENTS.md.
//
// Beyond the rendered tables, the harness emits a versioned machine-readable
// artifact (Report, written by `dsdbench -json` as BENCH_<timestamp>.json):
// run metadata, the measurement rows, and full solver traces for the
// flagship algorithms PKMC (Algorithm 2) and PWC (Algorithm 4), so phase
// splits and convergence behavior are archived next to the timings. The
// schema is documented in DESIGN.md and pinned by SchemaVersion.
package bench
