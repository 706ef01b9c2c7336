package server

import (
	"fmt"
	"net/http"
	"time"

	"repro"
)

// Degrade policies. DegradeAuto inspects every deadline-carrying solve
// request against the server's observed per-graph/per-algorithm latency
// estimates: an exact solve predicted to blow its deadline is downgraded
// along the degradation ladder to a registered approximation (the response
// carries "degraded": true plus the approximation's guarantee), and when
// even the cheapest rung is predicted to miss, the request is rejected up
// front with a structured 503 carrying the estimated cost — a slot is
// never burned on a solve that is doomed to deadline-cancel.
const (
	DegradeOff  = "off"
	DegradeAuto = "auto"
)

// degradeSafety is the headroom factor: an algorithm is considered viable
// when its estimated latency fits inside budget/degradeSafety, leaving
// room for queueing and estimate noise.
const degradeSafety = 1.25

// degradeRung is one fallback step: a cheaper algorithm plus the
// approximation guarantee it still carries (surfaced on degraded
// responses so clients know what they got).
type degradeRung struct {
	algo      dsd.Algo
	guarantee string
}

// degradeLadder returns the fallback rungs for a solver whose descriptor
// is marked Degradable in the registry, nil for anything else
// (approximations are never degraded further — they are the floor). Both
// the degradable set and the rung order come straight from the registered
// descriptors: rungs are the family's DegradeRank-carrying solvers in
// ascending rank order, each surfacing its registered guarantee on
// degraded responses. Registering a new solver updates this policy with
// no change here.
func degradeLadder(family string, algo dsd.Algo) []degradeRung {
	problem := dsd.Problem(family)
	if info, ok := dsd.Algorithm(problem, algo); !ok || !info.Degradable {
		return nil
	}
	var rungs []degradeRung
	for _, info := range dsd.DegradationLadder(problem) {
		rungs = append(rungs, degradeRung{algo: info.Name, guarantee: info.Guarantee})
	}
	return rungs
}

// effectiveAlgo resolves the wire algorithm name to the one the solver
// will actually run (the registry's family default when empty) — the
// estimator and the degradation ladder key on this.
func effectiveAlgo(family, algo string) dsd.Algo {
	if algo != "" {
		return dsd.Algo(algo)
	}
	return dsd.DefaultAlgorithm(dsd.Problem(family))
}

// planSolve applies the degradation policy to one solve request: given the
// graph, requested algorithm, and the request's deadline budget, it
// returns the algorithm to run plus the degradation bookkeeping for the
// response. With the policy off, no deadline, or no latency history for
// the requested algorithm, the request runs as asked. A non-nil apiError
// is the up-front 503 for requests no rung can satisfy.
func (s *Server) planSolve(family, graphName string, algo dsd.Algo, timeout time.Duration) (run dsd.Algo, degradedFrom string, guarantee string, aerr *apiError) {
	if s.cfg.DegradePolicy != DegradeAuto || timeout <= 0 {
		return algo, "", "", nil
	}
	budget := float64(timeout/time.Millisecond) / degradeSafety
	est, ok := s.metrics.EstimateMs(graphName, string(algo))
	if !ok || est <= budget {
		return algo, "", "", nil
	}
	ladder := degradeLadder(family, algo)
	if ladder == nil {
		// Already an approximation (or unknown grade): nothing cheaper is
		// registered, so reject up front rather than burn a doomed slot.
		return algo, "", "", errDeadlineInfeasible(graphName, string(algo), est, timeout)
	}
	for _, rung := range ladder {
		rest, known := s.metrics.EstimateMs(graphName, string(rung.algo))
		if !known || rest <= budget {
			s.metrics.DegradedSolves.Add(1)
			return rung.algo, string(algo), rung.guarantee, nil
		}
		if rest < est {
			est = rest // report the cheapest known cost on rejection
		}
	}
	return algo, "", "", errDeadlineInfeasible(graphName, string(algo), est, timeout)
}

// errDeadlineInfeasible is the structured 503 for solves no degradation
// rung can finish in budget: the estimated cost rides along so clients can
// retry with a realistic deadline.
func errDeadlineInfeasible(graphName, algo string, estimatedMs float64, timeout time.Duration) *apiError {
	return &apiError{
		status: http.StatusServiceUnavailable,
		code:   CodeDeadlineInfeasible,
		message: fmt.Sprintf("solve of %q with %q is estimated at %.0fms, beyond the %v deadline (including degradation fallbacks)",
			graphName, algo, estimatedMs, timeout),
		retryAfter:  1,
		estimatedMs: estimatedMs,
	}
}
