// Package graph provides the compressed-sparse-row graph substrate shared by
// every densest-subgraph algorithm in this repository: immutable undirected
// and directed graphs, builders from edge lists, induced subgraphs, edge
// sampling for scalability experiments, and text/binary serialization.
//
// Vertices are dense int32 ids 0..n-1. Adjacency is stored CSR-style
// (offsets into one flat neighbor array), the layout the paper's C++
// implementation uses and the one that keeps the parallel h-index sweeps
// memory-bandwidth bound rather than pointer-chasing bound.
package graph
