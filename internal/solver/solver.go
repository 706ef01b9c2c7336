package solver

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/trace"
)

// Kind separates the two disjoint problem families a descriptor can solve.
type Kind string

const (
	KindUDS Kind = "uds" // undirected: maximize |E(S)|/|S|
	KindDDS Kind = "dds" // directed: maximize |E(S,T)|/sqrt(|S||T|)
)

// Grade is the coarse guarantee class of a solver — the axis the
// degradation policy, the docs generator, and clients reason about.
// The human-readable fine print (ε dependence, the structure carrying the
// bound) lives in Descriptor.Guarantee.
type Grade string

const (
	GradeExact     Grade = "exact"     // provably optimal on termination
	GradeEps       Grade = "1+eps"     // (1+ε)-approximation (ε a knob or iteration limit)
	Grade2Approx   Grade = "2-approx"  // constant-factor, 2 up to ε slack
	GradeHeuristic Grade = "heuristic" // no proven ratio
)

// Params is the solver-facing slice of dsd.Options. It exists so the
// implementing packages (internal/uds, internal/dds) can register
// themselves without importing the public package — the dispatch layer
// converts. Field semantics match dsd.Options exactly; Budget arrives
// already tightened by any context deadline.
type Params struct {
	Workers    int
	Epsilon    float64
	Delta      float64
	Iterations int
	Budget     time.Duration
	Trace      *trace.Trace
}

// Result is an undirected densest-subgraph answer: the vertex set found,
// its density, and how much iterative work it took. Every UDS solver in
// internal/uds returns it directly.
type Result struct {
	Algorithm  string
	Vertices   []int32
	Density    float64
	Iterations int // solver-specific: sweeps, peel rounds, or FW steps; 0 when not meaningful
	KStar      int32
}

func (r Result) String() string {
	return fmt.Sprintf("%s: |S|=%d density=%.4f iters=%d", r.Algorithm, len(r.Vertices), r.Density, r.Iterations)
}

// DirectedResult is a directed densest-subgraph answer, returned directly
// by every DDS solver in internal/dds.
type DirectedResult struct {
	Algorithm  string
	S, T       []int32
	Density    float64
	XStar      int32 // cn-pair of the returned core, when core-based
	YStar      int32
	Iterations int
	// TimedOut reports that a budgeted solver (PBS, PFKS, PBD, PFW) hit
	// its deadline before exhausting its search; the result then holds the
	// best answer found so far — mirroring the paper's 10⁵-second cap in
	// Exp-5, under which PBS and PFKS never finish.
	TimedOut bool
}

func (r DirectedResult) String() string {
	return fmt.Sprintf("%s: |S|=%d |T|=%d density=%.4f [x*=%d y*=%d]",
		r.Algorithm, len(r.S), len(r.T), r.Density, r.XStar, r.YStar)
}

// Descriptor declares one registered algorithm: everything the server,
// CLI, bench harness, docs generator, and degradation policy need to
// dispatch it without a hand-maintained switch anywhere.
type Descriptor struct {
	// Name is the wire/CLI algorithm name ("pkmc"). Unique per Kind; the
	// UDS and DDS namespaces are independent (both have a "pfw").
	Name string
	// Kind is the problem family. Exactly one of SolveUDS/SolveDDS must be
	// set, matching it.
	Kind Kind
	// Display is the canonical human-readable name ("PKMC") used in
	// results, bench rows, and docs.
	Display string
	// Grade is the coarse guarantee class; Guarantee is its fine print,
	// e.g. "2-approximation (k*-core, Lemma 1)".
	Grade     Grade
	Guarantee string
	// Paper maps the algorithm to its source: the reproduced paper's
	// algorithm number or the external citation.
	Paper string
	// TraceColumns names the trace record kinds the solver emits when
	// Params.Trace is armed (e.g. "phases", "iterations", "convergence",
	// "counters", "work"). Empty means the solve is timed as a whole but adds no
	// rows of its own.
	TraceColumns []string
	// Default marks the family's default algorithm (empty algo name).
	// Exactly one descriptor per Kind may set it.
	Default bool
	// Degradable marks expensive solvers the server's -degrade auto policy
	// may downgrade when their latency estimate blows the request deadline.
	Degradable bool
	// DegradeRank, when > 0, makes this solver a fallback rung of its
	// family's degradation ladder; rungs are tried in ascending rank
	// order. A Degradable solver must not also be a rung.
	DegradeRank int
	// Serial marks solvers that ignore Params.Workers.
	Serial bool
	// Budgeted marks solvers that honor Params.Budget by returning their
	// best-so-far answer with TimedOut set.
	Budgeted bool
	// KStarCore marks UDS solvers whose answer is exactly the k*-core:
	// its vertex set, its density and k* itself. The k*-core is unique,
	// so every such solver returns the same answer, and a live graph that
	// maintains its core decomposition can serve it without a solve.
	KStarCore bool
	// SolveUDS runs a KindUDS descriptor: the solver's exported function
	// itself (uds.PKMC), never a wrapper. The context may be nil (never
	// cancel); cancelable implementations poll it at iteration boundaries,
	// and the rest name it _. An armed Params.Trace receives the records
	// TraceColumns declares.
	SolveUDS func(ctx context.Context, g *graph.Undirected, p Params) (Result, error)
	// SolveDDS runs a KindDDS descriptor under the same contract.
	SolveDDS func(ctx context.Context, d *graph.Directed, p Params) (DirectedResult, error)
}

// table is one descriptor namespace. The process-wide instance below is
// the real registry; tests swap in a fresh one to exercise Register
// without touching live registrations.
type table struct {
	sync.RWMutex
	byKind map[Kind][]Descriptor
}

func newTable() *table {
	return &table{byKind: make(map[Kind][]Descriptor)}
}

// registry is the process-wide descriptor table. Registration happens in
// package init functions (internal/uds, internal/dds); reads happen after
// program start. The lock makes the table safe for tests that exercise
// Register directly.
var registry = newTable()

// Register adds a descriptor to the table. It panics on a malformed or
// duplicate descriptor: registration runs at init time, where a loud
// failure at process start is the correct outcome for a wiring bug.
func Register(d Descriptor) {
	if err := validate(d); err != nil {
		panic("solver: " + err.Error())
	}
	registry.Lock()
	defer registry.Unlock()
	for _, existing := range registry.byKind[d.Kind] {
		if existing.Name == d.Name {
			panic(fmt.Sprintf("solver: duplicate %s algorithm %q", d.Kind, d.Name))
		}
		if existing.Default && d.Default {
			panic(fmt.Sprintf("solver: %s default already claimed by %q, refused to %q", d.Kind, existing.Name, d.Name))
		}
		if d.DegradeRank > 0 && existing.DegradeRank == d.DegradeRank {
			panic(fmt.Sprintf("solver: %s degrade rank %d already claimed by %q, refused to %q", d.Kind, d.DegradeRank, existing.Name, d.Name))
		}
	}
	registry.byKind[d.Kind] = append(registry.byKind[d.Kind], d)
}

func validate(d Descriptor) error {
	switch {
	case d.Name == "":
		return fmt.Errorf("descriptor without a name")
	case d.Kind != KindUDS && d.Kind != KindDDS:
		return fmt.Errorf("algorithm %q has unknown kind %q", d.Name, d.Kind)
	case d.Display == "":
		return fmt.Errorf("algorithm %q has no display name", d.Name)
	case d.Guarantee == "" || d.Paper == "":
		return fmt.Errorf("algorithm %q must document its guarantee and paper mapping", d.Name)
	case d.Grade != GradeExact && d.Grade != GradeEps && d.Grade != Grade2Approx && d.Grade != GradeHeuristic:
		return fmt.Errorf("algorithm %q has unknown grade %q", d.Name, d.Grade)
	case d.Kind == KindUDS && (d.SolveUDS == nil || d.SolveDDS != nil):
		return fmt.Errorf("UDS algorithm %q must set exactly SolveUDS", d.Name)
	case d.Kind == KindDDS && (d.SolveDDS == nil || d.SolveUDS != nil):
		return fmt.Errorf("DDS algorithm %q must set exactly SolveDDS", d.Name)
	case d.Degradable && d.DegradeRank > 0:
		return fmt.Errorf("algorithm %q cannot be both degradable and a degradation rung", d.Name)
	case d.DegradeRank > 0 && d.Grade == GradeExact:
		return fmt.Errorf("algorithm %q is exact-grade and cannot serve as a degradation rung", d.Name)
	case d.DegradeRank < 0:
		return fmt.Errorf("algorithm %q has negative degrade rank", d.Name)
	case d.KStarCore && d.Kind != KindUDS:
		return fmt.Errorf("algorithm %q: only UDS solvers can return the k*-core", d.Name)
	}
	return nil
}

// Lookup returns the descriptor registered under (kind, name). An empty
// name resolves to the family default.
func Lookup(kind Kind, name string) (Descriptor, bool) {
	registry.RLock()
	defer registry.RUnlock()
	for _, d := range registry.byKind[kind] {
		if name == "" && d.Default {
			return d, true
		}
		if d.Name == name {
			return d, true
		}
	}
	return Descriptor{}, false
}

// List returns the kind's descriptors in registration order — the order
// each implementing package declared them, which the CLI listing, docs
// table, and error messages all share.
func List(kind Kind) []Descriptor {
	registry.RLock()
	defer registry.RUnlock()
	return append([]Descriptor(nil), registry.byKind[kind]...)
}

// Names returns the kind's algorithm names in registration order.
func Names(kind Kind) []string {
	ds := List(kind)
	names := make([]string, len(ds))
	for i, d := range ds {
		names[i] = d.Name
	}
	return names
}

// Default returns the kind's default descriptor.
func Default(kind Kind) (Descriptor, bool) {
	return Lookup(kind, "")
}

// Ladder returns the kind's degradation rungs in ascending rank order:
// the fallbacks the serving tier tries, cheapest-acceptable first, when a
// Degradable solve is predicted to miss its deadline.
func Ladder(kind Kind) []Descriptor {
	var rungs []Descriptor
	for _, d := range List(kind) {
		if d.DegradeRank > 0 {
			rungs = append(rungs, d)
		}
	}
	sort.Slice(rungs, func(i, j int) bool { return rungs[i].DegradeRank < rungs[j].DegradeRank })
	return rungs
}
