// Package maxflow implements Dinic's maximum-flow algorithm on capacity
// networks with float64 capacities. It is the one flow engine of the exact
// densest-subgraph solvers: Goldberg's construction for UDS and the
// Khuller–Saha / Ma et al. parametric construction for DDS both reduce a
// density-threshold test "is there a subgraph with density > g?" to one
// min-cut computation, whose source side is the denser subgraph.
package maxflow
