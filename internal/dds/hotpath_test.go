package dds

import (
	"runtime/debug"
	"testing"

	"repro/internal/graph"
)

// checkZeroAlloc drives each HotPaths() entry under testing.AllocsPerRun
// and requires zero allocations, with GC disabled so a collection cannot
// interfere with the measurement. It also checks that the runner map and
// the registry cover each other exactly.
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
		fn() // warm any lazily-bound state outside the measurement
		prev := debug.SetGCPercent(-1)
		allocs := testing.AllocsPerRun(100, fn)
		debug.SetGCPercent(prev)
		if allocs != 0 {
			t.Errorf("%s allocates %.0f times per run; hot paths must be allocation-free", name, allocs)
		}
	}
}

func TestHotPathsZeroAlloc(t *testing.T) {
	d := graph.NewDirected(4, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 0, V: 2}, {U: 3, V: 0},
	})
	st := newWState(d, 1) // p = 1 keeps the parallel helpers inline
	// checkZeroAlloc calls a runner 102 times (one warm call, then
	// AllocsPerRun's warm-up and 100 runs). Each peelLevel run empties a
	// state of its own, built here, so every measured run removes arcs.
	fresh := make([]*wState, 102)
	for i := range fresh {
		fresh[i] = newWState(d, 1)
		fresh[i].removal = make([]int64, d.M())
	}
	var sinkI64 int64
	runners := map[string]func(){
		"wState.peelLevel": func() {
			sinkI64 = fresh[0].peelLevel(1<<40, 1)
			fresh = fresh[1:]
		},
		// Level 0 is below every live weight, so the block removes
		// nothing and every run is the same. The body reads its
		// threshold and the active list from the state: stage both as
		// peelLevel would.
		"wState.peelBlock": func() {
			st.level = 0
			st.peelBlock(0, len(st.active))
		},
	}
	if len(st.active) == 0 {
		t.Fatal("no active vertices to sweep")
	}
	checkZeroAlloc(t, HotPaths(), runners)
	_ = sinkI64
}
