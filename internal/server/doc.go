// Package server is the densest-subgraph query service: a long-running
// net/http layer over the solver stack that keeps graphs resident so the
// per-query wins of the paper's algorithms (PKMC's early stop, w-induced
// cores) compound across requests instead of being swamped by reloading.
//
// It is composed of four parts, each in its own file: a graph Registry
// (named, versioned, resident graphs), a Cache (LRU over solved results,
// keyed by graph version + algorithm + canonicalized options), admission
// control and per-request deadlines (middleware.go), and expvar Metrics
// served at /debug/vars. handlers.go wires them to the JSON endpoints and
// server.go assembles the mux.
//
// Observability is layered on top: /debug/vars additionally exports
// per-graph and per-algorithm solve counters, a log₂-bucketed solve-latency
// histogram, and (under Config.TracePhases) per-phase solver wall times;
// Config.EnablePprof mounts the net/http/pprof endpoints; and clients can
// request a full per-solve trace with the "trace" solve option.
package server
