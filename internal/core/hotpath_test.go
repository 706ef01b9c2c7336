package core

import (
	"runtime/debug"
	"testing"

	"repro/internal/graph"
)

// checkZeroAlloc drives each HotPaths() entry under testing.AllocsPerRun
// and requires zero allocations, with GC disabled so a collection cannot
// drain the sync.Pool scratch mid-measurement. It also checks that the
// runner map and the registry cover each other exactly, so a kernel added
// to one but not the other fails the test rather than going unmeasured.
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
	g := graph.NewUndirected(8, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}, {U: 2, V: 3},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 6}, {U: 6, V: 7}, {U: 1, V: 7},
	})
	sw := newHSweeper(g, 1) // p = 1 keeps the parallel helpers inline: no goroutines
	as := newAsyncSweeper(g, 1)
	buf := make([]int32, int(g.MaxDegree())+2)
	runners := map[string]func(){
		"asyncSweeper.certify":      func() { as.certify(2) },
		"asyncSweeper.certifyBlock": func() { as.certifyBlock(0, g.N()) },
		"asyncSweeper.sweep":        func() { as.sweep() },
		"asyncSweeper.sweepBlock":   func() { as.sweepBlock(0, g.N()) },
		"hIndexFromCounts":          func() { hIndexFromCounts(buf) },
		"hIndexOf":                  func() { hIndexOf(sw.cur, g.Neighbors(0), buf) },
		"hIndexOfLoad":              func() { hIndexOfLoad(as.h, g.Neighbors(0), buf) },
		"hSweeper.sweep":            func() { sw.sweep() },
		"hSweeper.sweepBlock":       func() { sw.sweepBlock(0, g.N()) },
		"mergeTop":                  func() { mergeTop(&as.top, 2, 1) },
	}
	checkZeroAlloc(t, HotPaths(), runners)
}
