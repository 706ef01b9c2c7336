// Package graph provides the compressed-sparse-row graph substrate shared by
// every densest-subgraph algorithm in this repository: immutable undirected
// and directed graphs, builders from edge lists, induced subgraphs, edge
// sampling for scalability experiments, and text/binary serialization.
//
// Vertices are dense int32 ids 0..n-1. Adjacency is stored CSR-style
// (offsets into one flat neighbor array), the layout the paper's C++
// implementation uses and the one that keeps the parallel h-index sweeps
// memory-bandwidth bound rather than pointer-chasing bound.
//
// Both graph kinds are built from one unexported type, csr: an offsets
// array and a neighbor array whose lists are sorted and duplicate-free.
// An Undirected graph is one csr holding each edge in both endpoints'
// lists; a Directed graph is two, its out-lists and its in-lists, which
// Reverse swaps. One constructor builds every csr, and one walk over a csr
// feeds the edge lists, both writers and edge sampling of both kinds.
package graph
