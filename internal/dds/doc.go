// Package dds solves the Directed Densest Subgraph problem (the paper's
// Problem 2): given a digraph D, find vertex sets S, T maximizing
// ρ(S, T) = |E(S, T)| / sqrt(|S|·|T|). It implements the full Exp-5 lineup:
// the exact flow solver and brute-force oracle, the peeling baselines PBS
// (Charikar), PFKS (Khuller–Saha, fixed) and PBD (Bahmani), the Frank–Wolfe
// PFW, the state-of-the-art core enumeration PXY (Ma et al.), and the
// paper's contribution PWC — the [x*, y*]-core extracted from a single
// w*-induced subgraph decomposition (Algorithms 3 and 4).
//
// The w-induced subgraph is the paper's Theorem 2 at work: with arc weight
// w(u→v) = d⁺(u)·d⁻(v), the maximum induce-number w* satisfies w* >= x*·y*
// (the paper claims equality, which fails on some graphs). When equality
// holds, the densest pair's core lives inside the (much smaller)
// w*-induced subgraph and one decomposition replaces PXY's enumeration
// over all (x, y) candidates; when it does not, PWC walks down the peel
// levels to the graph that holds the core. WStarSubgraph is Algorithm 3;
// PWC is Algorithm 4, and its trace counters carry the Table-7 arc counts.
//
// Every registered solver is one exported function with the registry's
// signature, func(ctx, d, solver.Params) (solver.DirectedResult, error),
// and its descriptor names it directly. Solvers that cannot be canceled
// name the context _.
package dds
