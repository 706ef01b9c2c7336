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
	induce := make([]int64, d.M())
	var sinkI64 int64
	runners := map[string]func(){
		"wState.weight": func() { sinkI64 = st.weight(0, 0) },
		// remove arc 0 (0 -> 1), then put it back by hand, so every
		// measured run performs the same real removal.
		"wState.remove": func() {
			st.remove(0, 0)
			st.alive[0] = true
			st.dplus[0]++
			st.dminus[1].Add(1)
		},
		"wState.minWeight": func() { sinkI64 = st.minWeight(1) },
		"wState.minBlock":  func() { st.minBlock(0, len(st.active)) },
		// Level -1 is below every weight, so the sweep removes nothing and
		// converges in one pass — repeatable under AllocsPerRun. The
		// second call passes an induce sink, as WStarSubgraph always does.
		"wState.peelLevel": func() {
			sinkI64 = st.peelLevel(-1, nil, 1)
			sinkI64 += st.peelLevel(-1, induce, 1)
		},
		"wState.peelBlock": func() { st.peelBlock(0, len(st.active)) },
	}
	checkZeroAlloc(t, HotPaths(), runners)
	_ = sinkI64
}
