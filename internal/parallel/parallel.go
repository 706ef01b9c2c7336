package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
)

// DefaultGrain is the smallest chunk of indices handed to a worker at a
// time. Too small and scheduling overhead dominates; too large and skewed
// per-index work (power-law degrees!) starves workers. 1024 keeps the
// dynamic-scheduling overhead under ~0.1% for the adjacency scans in this
// repository while still smoothing hub vertices across workers.
const DefaultGrain = 1024

// maxProcs is overridable in tests.
var maxProcs = runtime.GOMAXPROCS

// WorkerPanic wraps a panic raised inside a worker goroutine. The parallel
// drivers catch worker panics and re-raise the first one on the calling
// goroutine as a *WorkerPanic, so a solver bug unwinds the caller's stack —
// where a recover can convert it into an error — instead of killing the
// process from an unrecoverable goroutine. Value is the original panic value
// and Stack the worker's stack at the panic site.
type WorkerPanic struct {
	Value any
	Stack []byte
}

// Error makes a recovered *WorkerPanic usable as an error value directly
// (the dsd entry points wrap it into their public ErrInternal chain).
func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("panic in parallel worker: %v\n%s", p.Value, p.Stack)
}

// Unwrap exposes the original panic value when it was an error, so
// errors.As/Is work through a recovered *WorkerPanic.
func (p *WorkerPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// trap captures the first panic of a worker pool.
type trap struct {
	p atomic.Pointer[WorkerPanic]
}

// guard runs inside each worker's defer: it records a recovered panic
// (first one wins) instead of letting it escape the goroutine.
func (t *trap) guard() {
	if r := recover(); r != nil {
		wp, ok := r.(*WorkerPanic)
		if !ok {
			wp = &WorkerPanic{Value: r, Stack: debug.Stack()}
		}
		// else: a nested parallel region already wrapped it — keep the
		// innermost stack.
		t.p.CompareAndSwap(nil, wp)
	}
}

// pending reports whether a panic has been captured; sibling workers use it
// to stop claiming new chunks once the region is doomed.
func (t *trap) pending() bool { return t.p.Load() != nil }

// rethrow re-raises the captured panic, if any, on the calling goroutine.
// It must run after the pool's WaitGroup has drained.
func (t *trap) rethrow() {
	if wp := t.p.Load(); wp != nil {
		panic(wp)
	}
}

// Threads returns the number of worker goroutines used when p <= 0 is
// requested: the current GOMAXPROCS setting.
func Threads(p int) int {
	if p > 0 {
		return p
	}
	return maxProcs(0)
}

// For runs body(i) for every i in [0, n) using p workers (p <= 0 means
// GOMAXPROCS). Chunks of DefaultGrain indices are claimed dynamically via an
// atomic counter, which mirrors OpenMP's schedule(dynamic) and balances the
// skewed per-vertex work of power-law graphs. body must be safe for
// concurrent invocation on distinct i.
func For(n, p int, body func(i int)) {
	ForGrain(n, p, DefaultGrain, body)
}

// ForGrain is For with an explicit grain (chunk) size. grain <= 0 falls back
// to DefaultGrain. Exposed so the grain-size ablation bench can sweep it.
//
// A panic inside body does not kill the process: workers trap it and the
// first panic is re-raised on the calling goroutine as a *WorkerPanic
// carrying the worker's stack. Workers that have already claimed a chunk
// finish it; unclaimed chunks are abandoned once a panic is pending.
func ForGrain(n, p, grain int, body func(i int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = DefaultGrain
	}
	p = Threads(p)
	if p > n/grain+1 {
		p = n/grain + 1
	}
	if p <= 1 {
		faultinject.Fire(faultinject.SiteParallelForChunk)
		for i := 0; i < n; i++ {
			body(i)
		}
		recordRegion(n, grain, 1, false)
		return
	}
	// The workers capture a never-reassigned copy of grain: capturing the
	// mutated parameter itself would force it to the heap at function
	// entry, putting one allocation on the p <= 1 inline fast path that
	// the //dsd:hotpath kernels rely on being allocation-free.
	step := grain
	var t trap
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func() {
			defer wg.Done()
			defer t.guard()
			for {
				start := int(next.Add(int64(step))) - step
				if start >= n || t.pending() {
					return
				}
				faultinject.Fire(faultinject.SiteParallelForChunk)
				end := start + step
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					body(i)
				}
			}
		}()
	}
	wg.Wait()
	recordRegion(n, grain, p, t.pending())
	t.rethrow()
}

// ForBlocks runs body(lo, hi) over disjoint blocks covering [0, n), one
// block per claim. It is used when the body wants to keep per-block scratch
// state (e.g. a local histogram) rather than paying a closure call per index.
func ForBlocks(n, p, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = DefaultGrain
	}
	p = Threads(p)
	if p > n/grain+1 {
		p = n/grain + 1
	}
	if p <= 1 {
		faultinject.Fire(faultinject.SiteParallelForChunk)
		body(0, n)
		recordRegion(n, grain, 1, false)
		return
	}
	// step is a never-reassigned copy of grain for the workers to capture;
	// see the matching comment in ForGrain.
	step := grain
	var t trap
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func() {
			defer wg.Done()
			defer t.guard()
			for {
				start := int(next.Add(int64(step))) - step
				if start >= n || t.pending() {
					return
				}
				faultinject.Fire(faultinject.SiteParallelForChunk)
				end := start + step
				if end > n {
					end = n
				}
				body(start, end)
			}
		}()
	}
	wg.Wait()
	recordRegion(n, grain, p, t.pending())
	t.rethrow()
}

// Workers runs fn(w) once for each worker id w in [0, p) and waits for all
// of them. It is the building block for algorithms that keep explicit
// per-thread state (e.g. PXY's per-thread cn-pair search). Like the For
// drivers it traps worker panics and re-raises the first on the caller.
func Workers(p int, fn func(w int)) {
	p = Threads(p)
	if p <= 1 {
		faultinject.Fire(faultinject.SiteParallelWorkers)
		fn(0)
		recordRegion(1, 1, 1, false)
		return
	}
	var t trap
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func(w int) {
			defer wg.Done()
			defer t.guard()
			faultinject.Fire(faultinject.SiteParallelWorkers)
			fn(w)
		}(w)
	}
	wg.Wait()
	recordRegion(p, 1, p, t.pending())
	t.rethrow()
}

// MaxInt32 atomically raises *addr to v if v is larger. Returns true if the
// stored value changed.
func MaxInt32(addr *atomic.Int32, v int32) bool {
	for {
		cur := addr.Load()
		if v <= cur {
			return false
		}
		if addr.CompareAndSwap(cur, v) {
			return true
		}
	}
}

// MinInt64 atomically lowers *addr to v if v is smaller.
func MinInt64(addr *atomic.Int64, v int64) bool {
	for {
		cur := addr.Load()
		if v >= cur {
			return false
		}
		if addr.CompareAndSwap(cur, v) {
			return true
		}
	}
}

// MaxIndexInt32 returns, in parallel, the maximum of vals and how many
// entries attain it. An empty slice yields (0, 0). This pair — maximum
// h-index and the count of vertices attaining it — is exactly the state
// PKMC-Sync's Theorem-1 early-stop test tracks each iteration.
func MaxIndexInt32(vals []int32, p int) (max int32, count int64) {
	n := len(vals)
	if n == 0 {
		return 0, 0
	}
	var gmax atomic.Int32
	gmax.Store(vals[0])
	ForBlocks(n, p, DefaultGrain, func(lo, hi int) {
		local := vals[lo]
		for i := lo + 1; i < hi; i++ {
			if vals[i] > local {
				local = vals[i]
			}
		}
		MaxInt32(&gmax, local)
	})
	max = gmax.Load()
	var cnt atomic.Int64
	ForBlocks(n, p, DefaultGrain, func(lo, hi int) {
		var local int64
		for i := lo; i < hi; i++ {
			if vals[i] == max {
				local++
			}
		}
		cnt.Add(local)
	})
	return max, cnt.Load()
}
