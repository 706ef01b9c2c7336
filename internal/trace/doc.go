// Package trace is the solver observability substrate: an opt-in recorder
// that the UDS and DDS solvers populate with per-iteration convergence data
// (h-index sweeps and the certified early-stop trigger of the paper's
// Algorithm 2), per-phase wall times (core decomposition, pruning, flow
// verification, the Algorithm-3 w-induced decomposition), peak candidate-set
// sizes, and internal/parallel runtime counters. A nil *Trace disables every
// recording method, so the zero-cost default solve path carries no
// instrumentation; the public surface is re-exported as dsd.Trace and
// enabled per solve via dsd.Options.Trace.
package trace
