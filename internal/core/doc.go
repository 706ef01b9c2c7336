// Package core implements k-core decomposition, the dense-subgraph engine
// behind the paper's undirected densest-subgraph algorithms. It provides
// the serial Batagelj–Zaveršnik O(m) decomposition (the correctness oracle),
// the h-index–based parallel Local algorithm of Sariyüce et al. (the paper's
// Algorithm 1), the level-synchronous parallel peeling PKC of
// Kabir–Madduri, and the paper's contribution PKMC (Algorithm 2): Local cut
// short by the Theorem-1 early-stop criterion, which recovers the k*-core —
// a 2-approximation of the undirected densest subgraph — after only a few
// iterations.
//
// A trace passed to PKMC (PKMCOptions.Trace) or Local (its tr argument)
// receives one internal/trace iteration per synchronous h-index sweep — how
// many vertices changed, the largest single-vertex decrease, the running
// h_max with its support count, and whether the Theorem-1 test fired — at
// zero cost to the untraced path.
package core
