package uds

import (
	"runtime/debug"
	"testing"

	"repro/internal/graph"
)

// checkZeroAlloc drives each HotPaths() entry under testing.AllocsPerRun
// and requires zero allocations, with GC disabled so a collection cannot
// drain the scratch pool mid-measurement. It also checks that the runner
// map and the registry cover each other exactly.
func checkZeroAlloc(t *testing.T, entries []string, runners map[string]func()) {
	t.Helper()
	for name := range runners {
		found := false
		for _, e := range entries {
			if e == name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("runner %q has no HotPaths() entry", name)
		}
	}
	for _, name := range entries {
		fn, ok := runners[name]
		if !ok {
			t.Errorf("HotPaths() entry %q has no zero-alloc runner", name)
			continue
		}
		fn() // warm the pools and any lazily-bound state outside the measurement
		prev := debug.SetGCPercent(-1)
		allocs := testing.AllocsPerRun(100, fn)
		debug.SetGCPercent(prev)
		if allocs != 0 {
			t.Errorf("%s allocates %.0f times per run; hot paths must be allocation-free", name, allocs)
		}
	}
}

func TestHotPathsZeroAlloc(t *testing.T) {
	edges := []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}, {U: 2, V: 3},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 0},
	}
	g := graph.NewUndirected(6, edges)
	s := getGradScratch(g.Edges(), g.N(), 1) // p = 1 keeps the parallel helpers inline
	defer s.release()
	s.step = 0.05
	s.mom = 0.4
	s.gamma = 0.5
	for i := range s.x {
		s.x[i], s.xPrev[i], s.y[i], s.alpha[i] = 0.5, 0.4, 0.45, 0.5
	}
	s.recomputeLoads(s.alpha) // seed r/shares for the element kernels
	tMom := 1.0
	runners := map[string]func(){
		"gradScratch.recomputeLoads": func() { s.recomputeLoads(s.alpha) },
		"gradScratch.gatherLoad":     func() { s.gatherLoad(0) },
		"gradScratch.fistaIterate":   func() { tMom = s.fistaIterate(tMom) },
		"gradScratch.gradStep":       func() { s.gradStep(0) },
		"gradScratch.momStep":        func() { s.momStep(0) },
		"gradScratch.fwIterate":      func() { s.fwIterate(3) },
		"gradScratch.fwStep":         func() { s.fwStep(0) },
		"gradScratch.densestPrefix":  func() { s.densestPrefix() },
		"gradScratch.fractionalPeel": func() { s.fractionalPeel(g, s.alpha) },
	}
	checkZeroAlloc(t, HotPaths(), runners)
}
