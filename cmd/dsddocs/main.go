// Command dsddocs renders docs/ALGORITHMS.md from the live solver
// registry, so the user-facing algorithm catalog can never drift from
// what SolveUDS/SolveDDS actually dispatch.
//
// Usage:
//
//	dsddocs                      # rewrite docs/ALGORITHMS.md in place
//	dsddocs -out -               # print to stdout
//	dsddocs -out path/to/file.md
//
// The intro prose is hand-written (it lives in this file); everything
// from the first family heading on is generated from the registry. CI
// regenerates the file and fails on `git diff --exit-code` drift, and
// `make docs-algorithms` is the local equivalent.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	dsd "repro"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dsddocs:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dsddocs", flag.ContinueOnError)
	out := fs.String("out", "docs/ALGORITHMS.md", `output path ("-" = stdout)`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	doc := Render()
	if *out == "-" {
		_, err := stdout.Write(doc)
		return err
	}
	return os.WriteFile(*out, doc, 0o644)
}

// intro is the hand-written half of the reference: how the catalog maps
// onto the reproduced paper and where the convex-programming solvers sit.
// Everything below it is regenerated from the registry on every run.
const intro = `# Algorithm reference

<!-- Code generated by cmd/dsddocs from the solver registry; DO NOT EDIT.
     Regenerate with: make docs-algorithms -->

Every solver in this catalog is registered with the pluggable registry in
` + "`internal/solver`" + ` and is exactly what ` + "`dsd.SolveUDS`" + ` /
` + "`dsd.SolveDDS`" + ` dispatch: the CLI listing (` + "`dsd -algorithms`" + `), the
server's validation and ` + "`-degrade auto`" + ` ladder, the bench lineups, and
this file are all views of the same descriptors, so none of them can
drift from the code.

## How the catalog maps onto the paper

The reproduced paper is "Scalable Algorithms for Densest Subgraph
Discovery" (Luo, Tang, Fang, Ma, Zhou — ICDE 2023). Its two
contributions are the family defaults here:

- **PKMC** is the paper's **Algorithm 2**: the k*-core located by
  parallel h-index sweeps with the Theorem-1 early stop, a
  2-approximation for the undirected problem by Lemma 1.
- **PWC** is the paper's **Algorithms 3–4**: one w*-induced subgraph
  decomposition yielding the [x*, y*]-core, a 2-approximation for the
  directed problem by Theorem 3 (sound because w* = x*·y*, Theorem 2).

The remaining 2-approximation rows (Local, PKC, BZ, Charikar, PBU, PXY,
PBS, PFKS, PBD) are the baselines of the paper's Exp-1 and Exp-5, and
the exact rows are its flow-based exactness baselines (Goldberg's and
Khuller–Saha's parameterized min-cut searches, plus core-pruned
variants).

## The convex-programming solvers

Zhou et al. 2024 (arXiv:2406.04738) unify the near-optimal solvers as
first-order methods on one convex program: distribute each edge
fractionally over its two endpoints and minimize the squared vertex
loads, whose optimum equals the densest subgraph by LP duality. The
registry carries three tenants of that framework:

- **PFW** is Frank–Wolfe on the edge-split polytope (Danisch, Chan,
  Sozio): each sweep moves every edge toward its lighter endpoint, and
  sorting vertices by load yields a (1+ε)-dense prefix as sweeps grow.
  Greedy++ is the same program attacked by iterated peeling (an
  implicit multiplicative-weights method).
- **FISTA** (Harb, Quanrud, Chekuri — NeurIPS 2022) is the accelerated
  projected-gradient variant: momentum over the load vector with step
  size 1/(4Δ), projected back onto [0, 1] per edge. Each iteration
  certifies itself with a duality gap — best rounded prefix density
  (primal) vs. maximum vertex load (dual) — recorded as convergence
  trace rows, and the solve stops early once the gap falls under
  Options.Epsilon.
- **FracPeel** is the fractional-peeling rounding from the same line of
  work, applied to Frank–Wolfe loads: repeatedly remove the minimum-load
  vertex, returning each removed edge's fractional share to the
  surviving endpoint, and keep the densest suffix. It dominates the
  static prefix sweep on the same load vector, so its answer is never
  below PFW's at equal iterations; FISTA uses the same rounding on its
  final iterate.

## Guarantee grades

| grade | meaning |
|---|---|
| ` + "`exact`" + ` | provably optimal density |
| ` + "`1+eps`" + ` | (1+ε)-approximation, ε configurable or iteration-driven |
| ` + "`2-approx`" + ` | density at least half of optimal |
| ` + "`heuristic`" + ` | no a-priori bound |

`

func writeFamily(b *bytes.Buffer, title string, problem dsd.Problem) {
	fmt.Fprintf(b, "## %s\n\n", title)
	infos := dsd.Algorithms(problem)
	fmt.Fprintf(b, "Default (empty `Algo`): `%s`.\n\n", dsd.DefaultAlgorithm(problem))
	b.WriteString("| name | algorithm | grade | source | trace columns | notes |\n")
	b.WriteString("|---|---|---|---|---|---|\n")
	for _, a := range infos {
		traces := "—"
		if len(a.TraceColumns) > 0 {
			traces = strings.Join(a.TraceColumns, ", ")
		}
		fmt.Fprintf(b, "| `%s` | %s | `%s` | %s | %s | %s |\n",
			a.Name, a.Display, a.Grade, a.Paper, traces, notes(a))
	}
	b.WriteString("\nGuarantees:\n\n")
	for _, a := range infos {
		fmt.Fprintf(b, "- `%s` — %s\n", a.Name, a.Guarantee)
	}
	b.WriteString("\n### Degradation ladder\n\n")
	b.WriteString("Under `-degrade auto`, solvers marked *degradable* fall to the\nfirst rung predicted to meet the deadline, in rank order:\n\n")
	for i, a := range dsd.DegradationLadder(problem) {
		fmt.Fprintf(b, "%d. `%s` — %s\n", i+1, a.Name, a.Guarantee)
	}
	b.WriteString("\n")
}

func notes(a dsd.AlgorithmInfo) string {
	var n []string
	if a.Default {
		n = append(n, "**default**")
	}
	if a.DegradeRank > 0 {
		n = append(n, fmt.Sprintf("ladder rung %d", a.DegradeRank))
	}
	if a.Degradable {
		n = append(n, "degradable")
	}
	if a.Serial {
		n = append(n, "serial")
	}
	if a.Budgeted {
		n = append(n, "budgeted")
	}
	if len(n) == 0 {
		return "—"
	}
	return strings.Join(n, ", ")
}

// Render produces the full docs/ALGORITHMS.md contents: the hand-written
// intro followed by one generated section per problem family.
func Render() []byte {
	var b bytes.Buffer
	b.WriteString(intro)
	writeFamily(&b, "Undirected (UDS): maximize |E(S)| / |S|", dsd.ProblemUDS)
	writeFamily(&b, "Directed (DDS): maximize |E(S,T)| / √(|S|·|T|)", dsd.ProblemDDS)
	b.WriteString(`## Listing the catalog from code or the CLI

- Go: ` + "`dsd.Algorithms(dsd.ProblemUDS)`" + ` / ` + "`dsd.Algorithms(dsd.ProblemDDS)`" + `
  return this table as ` + "`[]dsd.AlgorithmInfo`" + `;
  ` + "`dsd.DegradationLadder`" + ` and ` + "`dsd.DefaultAlgorithm`" + ` expose the
  derived views.
- CLI: ` + "`dsd -algorithms`" + ` prints the human-readable catalog;
  ` + "`dsd -algorithms -json`" + ` emits it as JSON (see docs/CLI.md).
`)
	return b.Bytes()
}
