package dsd_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro"
)

// The cancellable UDS solvers must surface a dead context as ErrCanceled,
// and the sentinel must also wrap the underlying context cause so callers
// can distinguish timeout from explicit cancel.
func TestSolveUDSCanceled(t *testing.T) {
	g := dsd.GenerateChungLu(300, 1200, 2.1, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range []dsd.Algo{dsd.AlgoExactPruned, dsd.AlgoPFW, dsd.AlgoGreedyPP} {
		_, err := dsd.SolveUDS(g, algo, dsd.Options{Ctx: ctx})
		if !errors.Is(err, dsd.ErrCanceled) {
			t.Errorf("%s with canceled ctx: err = %v, want ErrCanceled", algo, err)
		}
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want to also wrap context.Canceled", algo, err)
		}
	}
}

func TestSolveDDSCanceled(t *testing.T) {
	d := dsd.GenerateChungLuDirected(300, 1200, 2.1, 2.1, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range []dsd.Algo{dsd.AlgoExactPrunedDDS, dsd.AlgoPBS, dsd.AlgoPFKS, dsd.AlgoPBD} {
		_, err := dsd.SolveDDS(d, algo, dsd.Options{Ctx: ctx})
		if !errors.Is(err, dsd.ErrCanceled) {
			t.Errorf("%s with canceled ctx: err = %v, want ErrCanceled", algo, err)
		}
	}
}

// An expired deadline is distinguishable from an explicit cancel.
func TestSolveDeadlineWrapsCause(t *testing.T) {
	g := dsd.GenerateChungLu(300, 1200, 2.1, 3)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := dsd.SolveUDS(g, dsd.AlgoExactPruned, dsd.Options{Ctx: ctx})
	if !errors.Is(err, dsd.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
}

// A nil Ctx (the default) must keep every solver working untouched.
func TestSolveNilContext(t *testing.T) {
	g := dsd.GenerateChungLu(300, 1200, 2.1, 3)
	res, err := dsd.SolveUDS(g, dsd.AlgoExactPruned, dsd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Density <= 0 {
		t.Fatalf("density = %g, want > 0", res.Density)
	}
}

// Budget expiry on the budgeted DDS baselines is a success (best-so-far,
// TimedOut set), while a context deadline on the same run is an error —
// the two time limits keep distinct semantics.
func TestBudgetVersusContext(t *testing.T) {
	d := dsd.GenerateChungLuDirected(2000, 20000, 2.1, 2.1, 5)
	res, err := dsd.SolveDDS(d, dsd.AlgoPBS, dsd.Options{Budget: time.Microsecond})
	if err != nil {
		t.Fatalf("budget expiry must not error: %v", err)
	}
	if !res.TimedOut {
		t.Fatal("microsecond budget did not set TimedOut")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := dsd.SolveDDS(d, dsd.AlgoPBS, dsd.Options{Budget: time.Hour, Ctx: ctx}); !errors.Is(err, dsd.ErrCanceled) {
		t.Fatalf("canceled ctx under budget: err = %v, want ErrCanceled", err)
	}
}
