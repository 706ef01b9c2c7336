package parallel

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000, 10000} {
		for _, p := range []int{1, 2, 4, 9} {
			hits := make([]atomic.Int32, n)
			For(n, p, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("n=%d p=%d: index %d visited %d times", n, p, i, got)
				}
			}
		}
	}
}

func TestForGrainSmallGrain(t *testing.T) {
	n := 5000
	hits := make([]atomic.Int32, n)
	ForGrain(n, 8, 3, func(i int) { hits[i].Add(1) })
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("index %d visited %d times", i, hits[i].Load())
		}
	}
}

func TestForGrainZeroFallsBackToDefault(t *testing.T) {
	var count atomic.Int64
	ForGrain(100, 4, 0, func(int) { count.Add(1) })
	if count.Load() != 100 {
		t.Fatalf("visited %d of 100", count.Load())
	}
}

func TestForBlocksPartition(t *testing.T) {
	n := 12345
	covered := make([]atomic.Int32, n)
	ForBlocks(n, 6, 100, func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad block [%d,%d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			covered[i].Add(1)
		}
	})
	for i := range covered {
		if covered[i].Load() != 1 {
			t.Fatalf("index %d covered %d times", i, covered[i].Load())
		}
	}
}

func TestWorkersRunsExactlyP(t *testing.T) {
	seen := make([]atomic.Int32, 7)
	Workers(7, func(w int) { seen[w].Add(1) })
	for w := range seen {
		if seen[w].Load() != 1 {
			t.Fatalf("worker %d ran %d times", w, seen[w].Load())
		}
	}
}

func TestWorkersSingleThread(t *testing.T) {
	var ran atomic.Int32
	Workers(1, func(w int) {
		if w != 0 {
			t.Errorf("worker id = %d, want 0", w)
		}
		ran.Add(1)
	})
	if ran.Load() != 1 {
		t.Fatalf("ran %d times", ran.Load())
	}
}

func TestThreads(t *testing.T) {
	if got := Threads(5); got != 5 {
		t.Fatalf("Threads(5) = %d", got)
	}
	if got := Threads(0); got < 1 {
		t.Fatalf("Threads(0) = %d, want >= 1", got)
	}
	if got := Threads(-3); got < 1 {
		t.Fatalf("Threads(-3) = %d, want >= 1", got)
	}
}

func TestMaxInt32(t *testing.T) {
	var a atomic.Int32
	a.Store(5)
	if MaxInt32(&a, 3) {
		t.Fatal("raising to smaller value reported a change")
	}
	if !MaxInt32(&a, 9) || a.Load() != 9 {
		t.Fatalf("max not raised: %d", a.Load())
	}
	if MaxInt32(&a, 9) {
		t.Fatal("equal value reported a change")
	}
}

func TestMaxMinInt64(t *testing.T) {
	var a atomic.Int64
	a.Store(200)
	MinInt64(&a, 50)
	if a.Load() != 50 {
		t.Fatalf("got %d", a.Load())
	}
}

func TestMaxInt32Concurrent(t *testing.T) {
	var a atomic.Int32
	For(10000, 8, func(i int) { MaxInt32(&a, int32(i)) })
	if a.Load() != 9999 {
		t.Fatalf("concurrent max = %d, want 9999", a.Load())
	}
}

func TestMaxIndexInt32(t *testing.T) {
	vals := []int32{3, 1, 4, 1, 5, 9, 2, 6, 5, 9}
	max, count := MaxIndexInt32(vals, 4)
	if max != 9 || count != 2 {
		t.Fatalf("got max=%d count=%d, want 9, 2", max, count)
	}
	if m, c := MaxIndexInt32(nil, 4); m != 0 || c != 0 {
		t.Fatalf("empty slice: got %d,%d", m, c)
	}
}

func TestMaxIndexInt32MatchesSerial(t *testing.T) {
	f := func(vals []int32) bool {
		if len(vals) == 0 {
			return true
		}
		pm, pc := MaxIndexInt32(vals, 8)
		var sm int32 = vals[0]
		for _, v := range vals {
			if v > sm {
				sm = v
			}
		}
		var sc int64
		for _, v := range vals {
			if v == sm {
				sc++
			}
		}
		return pm == sm && pc == sc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
