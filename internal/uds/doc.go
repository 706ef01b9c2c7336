// Package uds solves the Undirected Densest Subgraph problem (the paper's
// Problem 1): given G, find S maximizing ρ(G[S]) = |E(S)|/|S|. It provides
// the exact solver ExactPruned (a core reduction, then density-jump
// Goldberg min-cuts; the unpruned bisection Exact and BruteForce remain as
// test oracles) plus every approximation algorithm of the
// paper's Exp-1 lineup — Charikar's serial peeling, PBU (Bahmani batch
// peeling), PFW (Frank–Wolfe), and the three k*-core routes Local, PKC and
// PKMC (the paper's contribution, Algorithm 2, here with in-place sweeps
// and a certified early stop; PKMC-Sync keeps the published Theorem-1
// stop).
//
// Every registered solver is one exported function with the registry's
// signature, func(ctx, g, solver.Params) (solver.Result, error), and its
// descriptor names it directly. Params.Trace, when armed, receives the
// records the descriptor's TraceColumns declare — phase timings, h-index
// iteration logs, convergence rows, pruning counters; a nil trace costs
// one nil check per record. Solvers that cannot be canceled name the
// context _.
package uds
