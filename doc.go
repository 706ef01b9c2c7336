// Package dsd is a scalable densest-subgraph discovery library: a Go
// reproduction of "Scalable Algorithms for Densest Subgraph Discovery"
// (Luo, Tang, Fang, Ma, Zhou — ICDE 2023).
//
// It solves the two classic problems:
//
//   - UDS (undirected): find S maximizing |E(S)| / |S|;
//   - DDS (directed): find (S, T) maximizing |E(S,T)| / sqrt(|S|·|T|);
//
// with the paper's parallel 2-approximation algorithms as defaults — PKMC
// (Algorithm 2: k*-core via h-index sweeps with a certified early stop)
// for UDS and PWC (Algorithms 3–4: the [x*, y*]-core extracted from one
// w*-induced subgraph decomposition, sound because w* >= x*·y*) for
// DDS — plus every baseline the paper compares against, and exact
// flow-based solvers for small graphs.
//
// Quickstart:
//
//	g := dsd.NewGraph(4, []dsd.Edge{{0, 1}, {1, 2}, {2, 0}, {0, 3}})
//	res, _ := dsd.SolveUDS(g, dsd.AlgoPKMC, dsd.Options{})
//	fmt.Println(res.Density, res.Vertices) // the triangle, density 1
//
// All solvers run on the shared-memory model with a configurable worker
// count (Options.Workers; 0 means GOMAXPROCS), mirroring the paper's
// OpenMP implementation.
//
// Observability is opt-in per solve: pass a fresh &Trace{} in
// Options.Trace and the solver records per-phase wall times, the
// per-iteration h-index convergence (with the early-stop trigger),
// algorithm counters, and parallel-runtime work counters. A nil
// Options.Trace keeps every solver on its untraced fast path. See Trace.
//
// Every algorithm SolveUDS and SolveDDS accept comes from one pluggable
// solver registry, queryable at runtime: Algorithms returns the catalog
// (name, guarantee grade and fine print, paper mapping, trace columns),
// DefaultAlgorithm and DegradationLadder the derived policy views, and
// ValidateAlgorithm the structured *AlgorithmError (wrapping
// ErrUnknownAlgorithm) for a bad name. The rendered catalog lives in
// docs/ALGORITHMS.md, generated from the same registry by cmd/dsddocs.
package dsd
