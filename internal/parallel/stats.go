package parallel

import (
	"sync"
	"sync/atomic"
)

// Stats is a snapshot of the runtime's cumulative work counters: parallel
// regions entered, work chunks executed, index items covered, worker
// goroutines launched, and regions aborted early by a contained panic.
// Counters are process-wide and monotone; callers interested in one solve
// take a snapshot before and after and subtract (Stats.Sub). The JSON keys
// are the "parallel" object of a serialized trace.
type Stats struct {
	Regions        int64 `json:"regions"`
	Chunks         int64 `json:"chunks"`
	Items          int64 `json:"items"`
	WorkerLaunches int64 `json:"worker_launches"`
	AbortedRegions int64 `json:"aborted_regions"`
}

// Sub returns the delta s - prev, counter by counter.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Regions:        s.Regions - prev.Regions,
		Chunks:         s.Chunks - prev.Chunks,
		Items:          s.Items - prev.Items,
		WorkerLaunches: s.WorkerLaunches - prev.WorkerLaunches,
		AbortedRegions: s.AbortedRegions - prev.AbortedRegions,
	}
}

var (
	statRegions        atomic.Int64
	statChunks         atomic.Int64
	statItems          atomic.Int64
	statWorkerLaunches atomic.Int64
	statAborted        atomic.Int64
)

// statsRefs counts live RetainStats holders; the counters are armed while
// it is non-zero, so concurrent traced solves share them without one's
// release disarming the other's. Disarmed cost on the solve path is one
// atomic load per parallel *region* (not per chunk or index), so the
// default path stays unmeasurably close to free.
var statsRefs atomic.Int64

// RetainStats arms the counters for one traced solve and returns the
// matching release. The counters stay armed while any holder is live.
func RetainStats() (release func()) {
	statsRefs.Add(1)
	var once sync.Once
	return func() { once.Do(func() { statsRefs.Add(-1) }) }
}

// StatsSnapshot reads the cumulative counters.
func StatsSnapshot() Stats {
	return Stats{
		Regions:        statRegions.Load(),
		Chunks:         statChunks.Load(),
		Items:          statItems.Load(),
		WorkerLaunches: statWorkerLaunches.Load(),
		AbortedRegions: statAborted.Load(),
	}
}

// recordRegion accounts one completed parallel region: n items split into
// chunks of the given grain, run by workers goroutines (0 = inline serial
// path). Called once per region, after its WaitGroup has drained and before
// any trapped panic is re-raised, so aborted regions are still counted.
func recordRegion(n, grain, workers int, aborted bool) {
	if statsRefs.Load() == 0 {
		return
	}
	statRegions.Add(1)
	statItems.Add(int64(n))
	if workers <= 1 {
		statChunks.Add(1)
	} else {
		statChunks.Add(int64((n + grain - 1) / grain))
		statWorkerLaunches.Add(int64(workers))
	}
	if aborted {
		statAborted.Add(1)
	}
}
