package live

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/faultinject"
)

func newWriterGraph(t *testing.T, cfg Config) *Graph {
	t.Helper()
	lg := New(dsd.NewGraph(16, []dsd.Edge{{U: 0, V: 1}, {U: 1, V: 2}}), cfg, nil)
	lg.StartWriter()
	t.Cleanup(lg.Close)
	return lg
}

func TestWriterRoundTrip(t *testing.T) {
	lg := newWriterGraph(t, Config{})
	res, err := lg.Enqueue(context.Background(), []Mutation{{Op: OpInsert, U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 1 || !lg.Snapshot2().HasEdge(2, 3) {
		t.Fatalf("writer did not apply the batch: %+v", res)
	}
}

// TestWriterBacklog fills the queue while the writer is wedged on a slow
// batch (a one-shot delay fault on the apply probe) and checks overflow is
// rejected immediately with ErrBacklog rather than blocking the caller.
func TestWriterBacklog(t *testing.T) {
	lg := newWriterGraph(t, Config{QueueDepth: 2})

	faultinject.Arm(faultinject.SiteLiveApply, faultinject.Fault{
		Mode: faultinject.ModeDelay, Delay: time.Second, Count: 1,
	})
	defer faultinject.Reset()

	var wg sync.WaitGroup
	enqueue := func(u, v int32) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := lg.Enqueue(context.Background(), []Mutation{{Op: OpInsert, U: u, V: v}}); err != nil {
				t.Errorf("queued batch (%d,%d) rejected: %v", u, v, err)
			}
		}()
	}
	enqueue(4, 5) // the wedge: writer picks it up and sleeps on the probe
	time.Sleep(100 * time.Millisecond)
	enqueue(5, 6) // two fillers occupy the whole queue
	enqueue(6, 7)
	deadline := time.Now().Add(5 * time.Second)
	for len(lg.queue) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled while writer was wedged")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := lg.Enqueue(context.Background(), []Mutation{{Op: OpInsert, U: 10, V: 11}}); !errors.Is(err, ErrBacklog) {
		t.Fatalf("overflow enqueue: got %v, want ErrBacklog", err)
	}
	wg.Wait()
	if got := lg.M(); got != 5 {
		t.Fatalf("edge count after drain: got %d, want 5", got)
	}
}

func TestWriterClose(t *testing.T) {
	lg := New(dsd.NewGraph(4, nil), Config{}, nil)
	lg.StartWriter()
	lg.Close()
	lg.Close() // idempotent
	if _, err := lg.Enqueue(context.Background(), []Mutation{{Op: OpInsert, U: 0, V: 1}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after close: got %v, want ErrClosed", err)
	}
}

func TestWriterCloseWithoutStart(t *testing.T) {
	lg := New(dsd.NewGraph(4, nil), Config{}, nil)
	lg.Close() // must not hang waiting for a writer that never ran
	if _, err := lg.Enqueue(context.Background(), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after close: got %v, want ErrClosed", err)
	}
}

func TestWriterContextCancel(t *testing.T) {
	lg := newWriterGraph(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := lg.Enqueue(ctx, []Mutation{{Op: OpInsert, U: 0, V: 3}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled enqueue: got %v", err)
	}
}

// TestWriterPanicContainment checks a panic inside apply does not kill the
// writer goroutine: the caller gets an ApplyPanicError, the state heals via
// full rebuild — edge count, stats and snapshot all match the store — and
// the next batch works.
func TestWriterPanicContainment(t *testing.T) {
	lg := newWriterGraph(t, Config{})
	faultinject.Arm(faultinject.SiteLiveApply, faultinject.Fault{
		Mode: faultinject.ModePanic, Count: 1,
	})
	_, err := lg.Enqueue(context.Background(), []Mutation{{Op: OpInsert, U: 3, V: 4}})
	faultinject.Reset()
	var pe *ApplyPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("contained panic: got %v, want ApplyPanicError", err)
	}
	// The probe fires before the batch touches the store, so the healed
	// graph is the seed path 0-1-2.
	if m, st := lg.M(), lg.Stats(); m != 2 || st.N != 16 || st.M != 2 || st.MaxDegree != 2 {
		t.Fatalf("after heal: M()=%d Stats()=%+v, want m=2 n=16 max_degree=2", m, st)
	}
	if got := lg.Snapshot2().Edges(); !slices.Equal(got, []dsd.Edge{{U: 0, V: 1}, {U: 1, V: 2}}) {
		t.Fatalf("snapshot after heal = %v, want the seed path", got)
	}
	res, err := lg.Enqueue(context.Background(), []Mutation{{Op: OpInsert, U: 5, V: 6}})
	if err != nil || res.Inserted != 1 {
		t.Fatalf("writer dead after contained panic: res=%+v err=%v", res, err)
	}
	assertMatchesReference(t, lg)
}
