package core

import "repro/internal/graph"

// DensityFloor exposes PKMC's floor F to the external tests, which need
// the exact solver of internal/uds (a package that imports this one).
func DensityFloor(g *graph.Undirected) int32 { return newAsyncSweeper(g, 1).floor }
