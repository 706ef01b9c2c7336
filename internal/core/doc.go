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
// PKMC's sweeps also skip every vertex whose h has fallen below a density
// floor F <= k*, computed once per solve from the h-index of the degree
// sequence, so they read mostly the lists of vertices that can still
// reach the k*-core.
//
// A trace passed to PKMC, PKMCSync or Local (the tr argument of each)
// receives one internal/trace iteration per h-index sweep — how many
// vertices changed (for PKMC, how many swept vertices), the largest
// single-vertex decrease, the running h_max with its support count, and
// whether the sweep ended in a certified stop — at zero cost to the
// untraced path. PKMC also records its floor as the counter "floor", and
// every engine returns the adjacency entries its sweeps read
// (EdgesScanned), which the registry's solvers report as the work total
// edges_scanned.
package core
