package dsd

import "repro/internal/trace"

// Trace is the per-solve observability record, opt-in via Options.Trace:
// pass a fresh &dsd.Trace{} and the solver fills in per-phase wall times,
// the per-iteration h-index convergence of the core-based algorithms (with
// the early-stop trigger), peak candidate-set sizes,
// algorithm-specific counters (e.g. PWC's Table-7 arc counts), and the
// parallel-runtime work counters for the solve. A nil Options.Trace keeps
// every solver on its untraced fast path — the default costs nothing.
//
//	tr := &dsd.Trace{}
//	res, _ := dsd.SolveUDS(g, dsd.AlgoPKMC, dsd.Options{Trace: tr})
//	// tr.Iterations: one record per h-index sweep
//	// tr.Phases:     core-decomposition, density-evaluation, total
//	// tr.Parallel:   regions/chunks/worker launches used by this solve
type Trace = trace.Trace

// TracePhase is one timed solver stage of a Trace.
type TracePhase = trace.Phase

// TraceIteration is one h-index sweep record of a Trace.
type TraceIteration = trace.Iteration

// ParallelStats is the parallel-runtime counter delta of a Trace. The
// underlying counters are process-wide, so concurrent traced solves see
// each other's work blended in; single-solve contexts (CLI, bench) read
// exact figures.
type ParallelStats = trace.ParallelStats
