package trace

import (
	"time"

	"repro/internal/parallel"
)

// Phase is one timed stage of a solve: the name is solver-chosen (e.g.
// "core-decomposition", "wstar-decomposition", "flow-search") and stable
// across runs so phases can be compared along a benchmark trajectory.
type Phase struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// Iteration is one h-index sweep of the core-based solvers (Algorithms 1-2):
// the maximum h-value and how many vertices attain it (the candidate set
// the stopping tests watch), how many vertices changed value this sweep,
// the largest single decrease, and whether this sweep ended the solve
// with a certified stop.
type Iteration struct {
	Index     int   `json:"index"`      // 1-based sweep number
	HMax      int32 `json:"h_max"`      // maximum h-index after the sweep
	AtHMax    int64 `json:"at_h_max"`   // vertices attaining HMax (the candidate set size)
	Changed   int64 `json:"changed"`    // vertices whose h-value changed this sweep
	MaxDelta  int32 `json:"max_delta"`  // largest single-vertex decrease this sweep
	EarlyStop bool  `json:"early_stop"` // certified stop: PKMC's k*-core certificate held, or PKMC-Sync's Theorem-1 test fired
}

// Convergence is one iteration of a convex-programming solver (FISTA,
// fractional peeling over Frank–Wolfe loads): the best primal density
// found so far (a feasible subgraph, so a lower bound on ρ*), the best
// dual bound so far (the smallest max-load seen over any fractional
// orientation, an upper bound on ρ*), and their difference. Primal and
// Dual are both best-so-far, so Gap is non-increasing by construction —
// the per-iteration certificate the duality-gap early stop watches.
type Convergence struct {
	Index  int     `json:"index"`  // 1-based iteration number
	Primal float64 `json:"primal"` // best feasible density so far (lower bound on ρ*)
	Dual   float64 `json:"dual"`   // best max-load bound so far (upper bound on ρ*)
	Gap    float64 `json:"gap"`    // Dual - Primal
}

// ParallelStats is a delta of the internal/parallel runtime counters over
// one solve: how many parallel regions ran, how many work chunks were
// claimed, how many index items they covered, how many worker goroutines
// were launched, and how many regions were aborted by a contained panic.
type ParallelStats = parallel.Stats

// Trace accumulates one solve's observability record. All recording methods
// are nil-safe no-ops, so solver code threads a possibly-nil *Trace without
// branching; only the entry points (dsd.SolveUDS/SolveDDS, the bench
// harness) decide whether one exists. A Trace is not safe for concurrent
// writers — it belongs to a single solve call.
type Trace struct {
	Algorithm  string      `json:"algorithm,omitempty"`
	Phases     []Phase     `json:"phases,omitempty"`
	Iterations []Iteration `json:"iterations,omitempty"`
	// EarlyStop reports that a certified stop ended the h-index sweeps
	// before full convergence (PKMC's whole advantage over Local): PKMC's
	// k*-core certificate, or the Theorem 1 test for PKMC-Sync.
	EarlyStop bool `json:"early_stop,omitempty"`
	// PeakCandidates is the largest candidate set the solver carried:
	// the max h-max vertex count for the core solvers, the post-warm-start
	// arc count for PWC.
	PeakCandidates int64 `json:"peak_candidates,omitempty"`
	// Convergences is the per-iteration duality-gap record of the
	// convex-programming solvers (FISTA, fractional peeling): one row per
	// gradient/Frank–Wolfe step with the best-so-far primal and dual
	// bounds on ρ*.
	Convergences []Convergence `json:"convergence,omitempty"`
	// Counters holds algorithm-specific totals (e.g. PWC's Table-7 arc
	// counts: arcs_input, arcs_after_warm_start, arcs_at_wstar, wstar).
	Counters map[string]int64 `json:"counters,omitempty"`
	// Work holds algorithm-specific work totals that, unlike Counters,
	// may depend on the interleaving above one worker (e.g. PWC's
	// arcs_scanned: how many arcs one sweep leaves to the next depends
	// on which removals it saw). At one worker they are exact.
	Work map[string]int64 `json:"work,omitempty"`
	// Parallel is the internal/parallel counter delta over the solve.
	// Deltas are process-wide, so concurrent solves blend into each other's
	// numbers; single-solve contexts (CLI, bench) read them exactly.
	Parallel ParallelStats `json:"parallel"`
}

// Enabled reports whether recording is live (t != nil) — for callers that
// want to skip building expensive inputs to a recording call.
func (t *Trace) Enabled() bool { return t != nil }

// Begin opens the envelope of one traced solve: it arms the shared
// parallel-runtime counters and returns the closer that stores their delta
// in Parallel and the whole solve's wall time as the "total" phase.
// Idiomatic use is `defer tr.Begin()()`. Nil-safe: a nil trace arms
// nothing.
func (t *Trace) Begin() (finish func()) {
	if t == nil {
		return func() {}
	}
	release := parallel.RetainStats()
	before := parallel.StatsSnapshot()
	start := time.Now()
	return func() {
		t.Parallel = parallel.StatsSnapshot().Sub(before)
		release()
		t.AddPhase("total", time.Since(start))
	}
}

// SetAlgorithm stamps the solver name.
func (t *Trace) SetAlgorithm(name string) {
	if t != nil {
		t.Algorithm = name
	}
}

// StartPhase opens a named timed phase and returns its closer; idiomatic
// use is `defer tr.StartPhase("flow-search")()`. Nil-safe.
func (t *Trace) StartPhase(name string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		t.Phases = append(t.Phases, Phase{Name: name, Seconds: time.Since(start).Seconds()})
	}
}

// AddPhase records an already-measured phase (for callers that time work
// themselves). Nil-safe.
func (t *Trace) AddPhase(name string, d time.Duration) {
	if t != nil {
		t.Phases = append(t.Phases, Phase{Name: name, Seconds: d.Seconds()})
	}
}

// AddIteration appends one sweep record and keeps PeakCandidates raised to
// the sweep's candidate-set size. Nil-safe.
func (t *Trace) AddIteration(it Iteration) {
	if t == nil {
		return
	}
	it.Index = len(t.Iterations) + 1
	t.Iterations = append(t.Iterations, it)
	if it.AtHMax > t.PeakCandidates {
		t.PeakCandidates = it.AtHMax
	}
	if it.EarlyStop {
		t.EarlyStop = true
	}
}

// AddConvergence appends one duality-gap row, stamping its 1-based index.
// Nil-safe.
func (t *Trace) AddConvergence(primal, dual float64) {
	if t == nil {
		return
	}
	t.Convergences = append(t.Convergences, Convergence{
		Index:  len(t.Convergences) + 1,
		Primal: primal,
		Dual:   dual,
		Gap:    dual - primal,
	})
}

// Counter adds v to a named algorithm-specific counter. Nil-safe.
func (t *Trace) Counter(name string, v int64) {
	if t == nil {
		return
	}
	if t.Counters == nil {
		t.Counters = make(map[string]int64)
	}
	t.Counters[name] += v
}

// AddWork adds v to a named schedule-dependent work total. Nil-safe.
func (t *Trace) AddWork(name string, v int64) {
	if t == nil {
		return
	}
	if t.Work == nil {
		t.Work = make(map[string]int64)
	}
	t.Work[name] += v
}

// RaisePeak lifts PeakCandidates to v if larger. Nil-safe.
func (t *Trace) RaisePeak(v int64) {
	if t != nil && v > t.PeakCandidates {
		t.PeakCandidates = v
	}
}

// PhaseSeconds returns the recorded wall time of the named phase (summed if
// it was entered more than once), or 0 if it never ran.
func (t *Trace) PhaseSeconds(name string) float64 {
	if t == nil {
		return 0
	}
	var s float64
	for _, p := range t.Phases {
		if p.Name == name {
			s += p.Seconds
		}
	}
	return s
}
