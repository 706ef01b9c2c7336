// Package live is the streaming-mutation subsystem: it promotes the
// library's incremental core maintenance (internal/core.Dynamic) to the
// serving tier, turning resident read-only graphs into live graphs that
// accept batched edge insertions and deletions while every read path keeps
// its immutable-snapshot semantics.
//
// One live.Graph owns the authoritative mutable state of a served graph:
//
//   - a dsd.DynamicGraph, the graph's only edge store: sorted per-vertex
//     adjacency whose traversal repair keeps core numbers — and with them
//     the k*-core, the standing 2-approximate densest subgraph — exact
//     after every edge change in O(changed neighborhood) work, the dynamic
//     setting the paper's related work points at. The k*-core answer is
//     recomputed once per batch that changes the graph and kept with the
//     version, so Densest is O(1), and the server serves it as the answer
//     of every solver that returns the k*-core;
//   - immutable snapshots, built from the store copy-on-write by walking
//     the sorted lists in order: an in-flight solve keeps the *dsd.Graph
//     it grabbed, mutations never write into a published snapshot;
//   - a version, advanced in lockstep with the server registry through the
//     publish callback so a (snapshot, version) pair can never alias two
//     different graph states and version-keyed caches invalidate exactly.
//
// Oversized batches (Config.RecomputeBatch) skip per-edge repair: they
// edit the store unrepaired and rebuild the core decomposition once from
// scratch. The same rebuild heals the graph after a contained apply panic.
//
// Graph is not safe for concurrent mutation: all writes must come from one
// goroutine. The Writer half enforces that contract at the server boundary
// — a single writer goroutine per live graph fed by a bounded queue whose
// overflow is reported as ErrBacklog, mirroring the solve path's admission
// queue. Reads (Snapshot, Densest, Version) are safe from any goroutine.
package live
