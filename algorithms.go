package dsd

import "repro/internal/solver"

// Problem selects one of the two densest-subgraph families when querying
// the algorithm registry.
type Problem string

const (
	// ProblemUDS is the undirected problem: maximize |E(S)|/|S|.
	ProblemUDS Problem = Problem(solver.KindUDS)
	// ProblemDDS is the directed problem: maximize |E(S,T)|/√(|S|·|T|).
	ProblemDDS Problem = Problem(solver.KindDDS)
)

// AlgorithmInfo is the public view of one registered solver: everything
// the CLI listing, the server's degradation policy, and the generated
// docs/ALGORITHMS.md table present. Each implementing package registers
// its descriptors at init time, so this catalog is always the set of
// algorithms SolveUDS/SolveDDS actually dispatch — there is no second
// hand-maintained list to drift.
type AlgorithmInfo struct {
	// Name is the wire/CLI algorithm name accepted by SolveUDS/SolveDDS.
	Name Algo `json:"name"`
	// Problem is the family ("uds" or "dds"); the two namespaces are
	// independent (both register a "pfw").
	Problem Problem `json:"problem"`
	// Display is the human-readable name used in results and docs.
	Display string `json:"display"`
	// Grade is the coarse guarantee class: "exact", "1+eps", "2-approx",
	// or "heuristic". Guarantee is its fine print.
	Grade     string `json:"grade"`
	Guarantee string `json:"guarantee"`
	// Paper maps the algorithm to its source (the reproduced paper's
	// algorithm number, or the external citation).
	Paper string `json:"paper"`
	// TraceColumns names the trace record kinds the solver emits when
	// Options.Trace is set ("phases", "iterations", "convergence",
	// "counters", "work"). Empty means the solve is timed as a whole only.
	TraceColumns []string `json:"trace_columns,omitempty"`
	// Default marks the family's default (empty algo name) choice.
	Default bool `json:"default,omitempty"`
	// Degradable marks solvers the server's -degrade auto policy may
	// downgrade onto the family's ladder; DegradeRank > 0 marks the
	// ladder rungs themselves, tried in ascending order.
	Degradable  bool `json:"degradable,omitempty"`
	DegradeRank int  `json:"degrade_rank,omitempty"`
	// Serial marks solvers that ignore Options.Workers; Budgeted marks
	// solvers that honor Options.Budget with a best-so-far TimedOut
	// answer.
	Serial   bool `json:"serial,omitempty"`
	Budgeted bool `json:"budgeted,omitempty"`
	// KStarCore marks solvers whose answer is exactly the k*-core (vertex
	// set, density and k*). The k*-core is unique, so they all agree, and
	// the server answers them on live graphs from the maintained core
	// decomposition instead of running a solve.
	KStarCore bool `json:"k_star_core,omitempty"`
}

func infoOf(d solver.Descriptor) AlgorithmInfo {
	return AlgorithmInfo{
		Name:         Algo(d.Name),
		Problem:      Problem(d.Kind),
		Display:      d.Display,
		Grade:        string(d.Grade),
		Guarantee:    d.Guarantee,
		Paper:        d.Paper,
		TraceColumns: append([]string(nil), d.TraceColumns...),
		Default:      d.Default,
		Degradable:   d.Degradable,
		DegradeRank:  d.DegradeRank,
		Serial:       d.Serial,
		Budgeted:     d.Budgeted,
		KStarCore:    d.KStarCore,
	}
}

// Algorithm returns the catalog entry of one registered solver (an empty
// algo names the family default), false when the family has no such
// solver.
func Algorithm(problem Problem, algo Algo) (AlgorithmInfo, bool) {
	d, ok := solver.Lookup(solver.Kind(problem), string(algo))
	if !ok {
		return AlgorithmInfo{}, false
	}
	return infoOf(d), true
}

// Algorithms returns the registered catalog for one problem family in
// presentation order, or for both (UDS first) when problem is empty.
func Algorithms(problem Problem) []AlgorithmInfo {
	var out []AlgorithmInfo
	for _, kind := range []solver.Kind{solver.KindUDS, solver.KindDDS} {
		if problem != "" && Problem(kind) != problem {
			continue
		}
		for _, d := range solver.List(kind) {
			out = append(out, infoOf(d))
		}
	}
	return out
}

// DefaultAlgorithm returns the family's default algorithm name — what an
// empty algo resolves to in SolveUDS/SolveDDS.
func DefaultAlgorithm(problem Problem) Algo {
	if d, ok := solver.Default(solver.Kind(problem)); ok {
		return Algo(d.Name)
	}
	return ""
}

// DegradationLadder returns the family's fallback rungs in the order the
// server's -degrade auto policy tries them (ascending DegradeRank) when a
// Degradable solve is predicted to miss its deadline.
func DegradationLadder(problem Problem) []AlgorithmInfo {
	var out []AlgorithmInfo
	for _, d := range solver.Ladder(solver.Kind(problem)) {
		out = append(out, infoOf(d))
	}
	return out
}

// ValidateAlgorithm reports whether algo names a registered solver of the
// family (empty algo means the default and is always valid). On failure it
// returns an *AlgorithmError wrapping ErrUnknownAlgorithm with the valid
// names attached.
func ValidateAlgorithm(problem Problem, algo Algo) error {
	if _, ok := solver.Lookup(solver.Kind(problem), string(algo)); !ok {
		return unknownAlgorithm(problem, algo)
	}
	return nil
}

func unknownAlgorithm(problem Problem, algo Algo) *AlgorithmError {
	var valid, grades []string
	for _, d := range solver.List(solver.Kind(problem)) {
		valid = append(valid, d.Name)
		grades = append(grades, string(d.Grade))
	}
	return &AlgorithmError{Problem: problem, Algorithm: string(algo), Valid: valid, Grades: grades}
}
