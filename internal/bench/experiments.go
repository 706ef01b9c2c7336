package bench

import (
	"io"
	"strconv"

	"repro/internal/dds"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/solver"
	"repro/internal/trace"
	"repro/internal/uds"
)

// lineup resolves registry names into the descriptors a figure compares.
// Runs pass only Workers (and, for DDS, the Budget), so every other knob
// hits the solver's registered defaults — the paper's settings (PFW ε=1 →
// default iteration budget; PBU ε=0.5; PBD δ=2, ε=1). An unregistered name
// panics: the lineup is wired at build time and a typo should fail the
// first run, not silently drop a bar from a figure.
func lineup(kind solver.Kind, names ...string) []solver.Descriptor {
	out := make([]solver.Descriptor, 0, len(names))
	for _, n := range names {
		d, ok := solver.Lookup(kind, n)
		if !ok {
			panic("bench: " + string(kind) + " algorithm not registered: " + n)
		}
		out = append(out, d)
	}
	return out
}

// udsLineup returns the paper's five compared UDS algorithms.
func udsLineup() []solver.Descriptor {
	return lineup(solver.KindUDS, "pfw", "pbu", "local", "pkc", "pkmc")
}

// ddsLineup returns the paper's six compared DDS algorithms.
func ddsLineup() []solver.Descriptor {
	return lineup(solver.KindDDS, "pbs", "pfks", "pfw", "pbd", "pxy", "pwc")
}

// runUDS solves g with one lineup entry; a solver error (impossible with
// the nil context) panics.
func runUDS(d solver.Descriptor, g *graph.Undirected, p solver.Params) solver.Result {
	r, err := d.SolveUDS(nil, g, p)
	if err != nil {
		panic("bench: " + d.Name + ": " + err.Error())
	}
	return r
}

// runDDS is runUDS's directed twin.
func runDDS(d solver.Descriptor, g *graph.Directed, p solver.Params) solver.DirectedResult {
	r, err := d.SolveDDS(nil, g, p)
	if err != nil {
		panic("bench: " + d.Name + ": " + err.Error())
	}
	return r
}

// Datasets regenerates Tables 4 and 5: materialize each scale model and
// report its statistics next to the paper's original sizes.
func Datasets(w io.Writer, cfg Config) {
	cfg = cfg.withDefaults()
	var undStats, dirStats []graph.Stats
	for _, ds := range gen.UndirectedCatalog() {
		undStats = append(undStats, ds.BuildUndirected(cfg.Scale).Summarize(ds.Abbr))
	}
	for _, ds := range gen.DirectedCatalog() {
		dirStats = append(dirStats, ds.BuildDirected(cfg.Scale).Summarize(ds.Abbr))
	}
	io.WriteString(w, "== Table 4: undirected datasets (paper vs scale model) ==\n")
	io.WriteString(w, gen.FormatCatalog(gen.UndirectedCatalog(), undStats))
	io.WriteString(w, "\n== Table 5: directed datasets (paper vs scale model) ==\n")
	io.WriteString(w, gen.FormatCatalog(gen.DirectedCatalog(), dirStats))
	io.WriteString(w, "\n")
	for _, s := range append(undStats, dirStats...) {
		io.WriteString(w, s.String()+"\n")
	}
}

// Exp1 reproduces Fig. 5: UDS efficiency of the five algorithms on the six
// undirected datasets at the default thread count.
func Exp1(cfg Config) []Row {
	cfg = cfg.withDefaults()
	var rows []Row
	for _, ds := range gen.UndirectedCatalog() {
		g := ds.BuildUndirected(cfg.Scale)
		for _, a := range udsLineup() {
			var res solver.Result
			sec, allocs := timeAlloc(func() { res = runUDS(a, g, solver.Params{Workers: cfg.Workers}) })
			rows = append(rows, Row{
				Experiment: "exp1", Dataset: ds.Abbr, Algorithm: a.Display,
				Seconds: sec, Density: res.Density, Iterations: res.Iterations, Allocs: allocs,
			})
		}
	}
	return rows
}

// Exp2 reproduces Table 6: iteration counts of the three core-based UDS
// algorithms (PKC level peeling vs Local full convergence vs PKMC early
// stop) on the six undirected datasets.
func Exp2(cfg Config) []Row {
	cfg = cfg.withDefaults()
	var rows []Row
	for _, ds := range gen.UndirectedCatalog() {
		g := ds.BuildUndirected(cfg.Scale)
		for _, a := range udsLineup() {
			if a.Display != "PKC" && a.Display != "Local" && a.Display != "PKMC" {
				continue
			}
			var res solver.Result
			sec, allocs := timeAlloc(func() { res = runUDS(a, g, solver.Params{Workers: cfg.Workers}) })
			rows = append(rows, Row{
				Experiment: "exp2", Dataset: ds.Abbr, Algorithm: a.Display,
				Seconds: sec, Density: res.Density, Iterations: res.Iterations, Allocs: allocs,
			})
		}
	}
	return rows
}

// Exp3 reproduces Fig. 6: UDS runtime versus thread count p on the first
// three undirected datasets.
func Exp3(cfg Config) []Row {
	cfg = cfg.withDefaults()
	var rows []Row
	for _, ds := range gen.UndirectedCatalog()[:3] {
		g := ds.BuildUndirected(cfg.Scale)
		for _, p := range cfg.ThreadSweep {
			for _, a := range udsLineup() {
				if a.Display == "PFW" {
					continue // dominated by orders of magnitude; Fig. 6 timing detail is about the core-based methods and PBU
				}
				var res solver.Result
				sec, allocs := timeAlloc(func() { res = runUDS(a, g, solver.Params{Workers: p}) })
				rows = append(rows, Row{
					Experiment: "exp3", Dataset: ds.Abbr, Algorithm: a.Display,
					Param: pLabel(p), Seconds: sec, Density: res.Density, Iterations: res.Iterations, Allocs: allocs,
				})
			}
		}
	}
	return rows
}

// Exp4 reproduces Fig. 7: UDS runtime versus sampled edge fraction on the
// SK and UN models.
func Exp4(cfg Config) []Row {
	cfg = cfg.withDefaults()
	var rows []Row
	for _, abbr := range []string{"SK", "UN"} {
		ds, _ := gen.FindDataset(abbr)
		g := ds.BuildUndirected(cfg.Scale)
		for _, frac := range cfg.Fractions {
			sub := g.SampleEdges(frac, 7700+int64(frac*100))
			for _, a := range udsLineup() {
				var res solver.Result
				sec, allocs := timeAlloc(func() { res = runUDS(a, sub, solver.Params{Workers: cfg.Workers}) })
				rows = append(rows, Row{
					Experiment: "exp4", Dataset: ds.Abbr, Algorithm: a.Display,
					Param: fracLabel(frac), Seconds: sec, Density: res.Density, Iterations: res.Iterations, Allocs: allocs,
				})
			}
		}
	}
	return rows
}

// Exp5 reproduces Fig. 8: DDS efficiency of the six algorithms on the six
// directed datasets under the time budget (bars that hit the budget are
// the paper's "cannot finish within 10⁵ seconds").
func Exp5(cfg Config) []Row {
	cfg = cfg.withDefaults()
	var rows []Row
	for _, ds := range gen.DirectedCatalog() {
		d := ds.BuildDirected(cfg.Scale)
		for _, a := range ddsLineup() {
			var res solver.DirectedResult
			sec, allocs := timeAlloc(func() { res = runDDS(a, d, solver.Params{Workers: cfg.Workers, Budget: cfg.Budget}) })
			rows = append(rows, Row{
				Experiment: "exp5", Dataset: ds.Abbr, Algorithm: a.Display,
				Seconds: sec, TimedOut: res.TimedOut, Density: res.Density, Iterations: res.Iterations, Allocs: allocs,
			})
		}
	}
	return rows
}

// Exp6 reproduces Table 7: the number of arcs each core-based DDS
// algorithm actually processes — all m for every PXY candidate, versus
// PWC's warm-start remainder, w*-subgraph, and final core.
func Exp6(cfg Config) []Row {
	cfg = cfg.withDefaults()
	var rows []Row
	for _, ds := range gen.DirectedCatalog() {
		d := ds.BuildDirected(cfg.Scale)
		tr := &trace.Trace{}
		res, _ := dds.PWC(nil, d, solver.Params{Workers: cfg.Workers, Trace: tr}) // a nil ctx never cancels
		c := tr.Counters
		rows = append(rows, Row{
			Experiment: "exp6", Dataset: ds.Abbr, Algorithm: "PWC",
			Density: res.Density, Iterations: int(c["levels"]),
			Extra: map[string]int64{
				"PXY":    c["arcs_input"],
				"PWC1":   c["arcs_after_warm_start"],
				"PWCw*":  c["arcs_at_wstar"],
				"PWCD*":  c["arcs_densest"],
				"wstar":  c["wstar"],
				"levels": c["levels"],
			},
		})
	}
	return rows
}

// Exp7 reproduces Fig. 9: DDS runtime versus thread count p for PBD, PXY
// and PWC on the first three directed datasets (the baselines PBS/PFKS/PFW
// are omitted as in the paper).
func Exp7(cfg Config) []Row {
	cfg = cfg.withDefaults()
	var rows []Row
	for _, ds := range gen.DirectedCatalog()[:3] {
		d := ds.BuildDirected(cfg.Scale)
		for _, p := range cfg.ThreadSweep {
			for _, a := range ddsLineup() {
				if a.Display != "PBD" && a.Display != "PXY" && a.Display != "PWC" {
					continue
				}
				var res solver.DirectedResult
				sec, allocs := timeAlloc(func() { res = runDDS(a, d, solver.Params{Workers: p, Budget: cfg.Budget}) })
				rows = append(rows, Row{
					Experiment: "exp7", Dataset: ds.Abbr, Algorithm: a.Display,
					Param: pLabel(p), Seconds: sec, TimedOut: res.TimedOut,
					Density: res.Density, Iterations: res.Iterations, Allocs: allocs,
				})
			}
		}
	}
	return rows
}

// Exp8 reproduces Fig. 10: DDS runtime versus sampled edge fraction on the
// WE and TW models for PBD, PXY and PWC.
func Exp8(cfg Config) []Row {
	cfg = cfg.withDefaults()
	var rows []Row
	for _, abbr := range []string{"WE", "TW"} {
		ds, _ := gen.FindDataset(abbr)
		d := ds.BuildDirected(cfg.Scale)
		for _, frac := range cfg.Fractions {
			sub := d.SampleEdges(frac, 8800+int64(frac*100))
			for _, a := range ddsLineup() {
				if a.Display != "PBD" && a.Display != "PXY" && a.Display != "PWC" {
					continue
				}
				var res solver.DirectedResult
				sec, allocs := timeAlloc(func() { res = runDDS(a, sub, solver.Params{Workers: cfg.Workers, Budget: cfg.Budget}) })
				rows = append(rows, Row{
					Experiment: "exp8", Dataset: ds.Abbr, Algorithm: a.Display,
					Param: fracLabel(frac), Seconds: sec, TimedOut: res.TimedOut,
					Density: res.Density, Iterations: res.Iterations, Allocs: allocs,
				})
			}
		}
	}
	return rows
}

// Ratios measures the empirical approximation ratio ρ*/ρ(found) of every
// registered non-exact algorithm against the exact flow solvers on small
// planted instances — the effectiveness check the paper cites from prior
// work (its §VI-A Remark). The lineup is the solver registry minus the
// exact-grade entries, so a newly registered approximation shows up here
// with no bench change.
func Ratios(cfg Config) []Row {
	cfg = cfg.withDefaults()
	var rows []Row

	// Undirected: ER body with a planted clique.
	base := gen.ErdosRenyi(400, 1200, 31)
	g, _ := gen.PlantClique(base, 14, 32)
	exact, _ := uds.Exact(nil, g, solver.Params{}) // a nil ctx never cancels
	opt := exact.Density
	for _, d := range solver.List(solver.KindUDS) {
		if d.Grade == solver.GradeExact {
			continue
		}
		res, err := d.SolveUDS(nil, g, solver.Params{Workers: cfg.Workers})
		if err != nil || res.Density <= 0 {
			continue
		}
		rows = append(rows, Row{
			Experiment: "ratios", Dataset: "clique", Algorithm: d.Display,
			Density: res.Density,
			Extra:   map[string]int64{"ratio_x1000": int64(1000 * opt / res.Density)},
		})
	}

	// Directed: ER body with a planted biclique. The instance is small
	// because the exact DDS oracle enumerates O(n²) ratios with one
	// min-cut binary search each — n=80 keeps the oracle under a second.
	dbase := gen.ErdosRenyiDirected(80, 320, 33)
	d, _, _ := gen.PlantBiclique(dbase, 7, 10, 34)
	dexact, _ := dds.Exact(nil, d, solver.Params{}) // a nil ctx never cancels
	dopt := dexact.Density
	for _, desc := range solver.List(solver.KindDDS) {
		if desc.Grade == solver.GradeExact {
			continue
		}
		res, err := desc.SolveDDS(nil, d, solver.Params{Workers: cfg.Workers, Budget: cfg.Budget})
		if err != nil || res.Density <= 0 {
			continue
		}
		rows = append(rows, Row{
			Experiment: "ratios", Dataset: "biclique", Algorithm: desc.Display,
			Density: res.Density, TimedOut: res.TimedOut,
			Extra: map[string]int64{"ratio_x1000": int64(1000 * dopt / res.Density)},
		})
	}
	return rows
}

// Accuracy produces the accuracy-versus-time trajectories of the
// convex-programming solvers: FISTA and FracPeel against GreedyPP across
// growing iteration budgets on the planted-clique instance, each row
// carrying wall time, achieved density, and the ratio against the exact
// optimum — the Zhou-et-al-style convergence comparison the registry's
// (1+ε) entries are judged by. FISTA runs with a negligible ε so the
// iteration budget, not the early stop, ends each run.
func Accuracy(cfg Config) []Row {
	cfg = cfg.withDefaults()
	base := gen.ErdosRenyi(400, 1200, 31)
	g, _ := gen.PlantClique(base, 14, 32)
	exact, _ := uds.Exact(nil, g, solver.Params{}) // a nil ctx never cancels
	opt := exact.Density
	var rows []Row
	for _, d := range lineup(solver.KindUDS, "fista", "fracpeel", "greedypp") {
		for _, iters := range []int{5, 10, 25, 50, 100} {
			var res solver.Result
			sec, allocs := timeAlloc(func() {
				res = runUDS(d, g, solver.Params{Workers: cfg.Workers, Iterations: iters, Epsilon: 1e-9})
			})
			rows = append(rows, Row{
				Experiment: "accuracy", Dataset: "clique", Algorithm: d.Display,
				Param: "iters=" + strconv.Itoa(iters), Seconds: sec, Allocs: allocs,
				Density: res.Density, Iterations: res.Iterations,
				Extra: map[string]int64{"ratio_x1000": int64(1000 * opt / res.Density)},
			})
		}
	}
	return rows
}

func pLabel(p int) string        { return "p=" + strconv.Itoa(p) }
func fracLabel(f float64) string { return strconv.Itoa(int(f*100+0.5)) + "%" }
