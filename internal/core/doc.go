// Package core implements k-core decomposition, the dense-subgraph engine
// behind the paper's undirected densest-subgraph algorithms. It provides
// the serial Batagelj–Zaveršnik O(m) decomposition (the correctness oracle)
// and a single-threshold k-core peel, the h-index–based parallel Local
// algorithm of Sariyüce et al. (the paper's Algorithm 1), the
// level-synchronous parallel peeling PKC of Kabir–Madduri, and the paper's
// contribution in two forms. PKMCSync is Algorithm 2 as published: Local
// cut short by the Theorem-1 early-stop criterion. PKMC, the engine behind
// the registry's pkmc, updates h in place and stops as soon as the set
// {v : h(v) = h_max} certifies itself as the k*-core — a 2-approximation of
// the undirected densest subgraph — in about half of PKMCSync's sweeps.
//
// A trace passed to PKMC, PKMCSync or Local (the tr argument of each)
// receives one internal/trace iteration per h-index sweep — how many
// vertices changed, the largest single-vertex decrease, the running h_max
// with its support count, and whether the sweep ended in a certified stop
// — at zero cost to the untraced path.
package core
