package server

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"sync"
)

// flightGroup coalesces identical in-flight solves: every concurrent
// request whose canonical cache key matches an already-running solve joins
// it as a waiter instead of burning a second semaphore slot on the same
// max-flow search. The key is the cache key — graph name@version,
// family, algorithm, and every answer-steering option — so two requests
// coalesce exactly when a cache hit would have been correct had the first
// finished already. Traced requests never enter the group (a trace is a
// per-run artifact, and traced solves already bypass the cache read).
//
// Lifecycle of one flight:
//
//   - The first caller creates the flight and spawns the leader goroutine,
//     which owns the flight context, takes one admission slot, runs the
//     solve, and stores the result in the LRU once.
//   - Every caller — the creator included — waits on its own request
//     context. A waiter whose deadline expires detaches with a structured
//     timeout without disturbing the shared solve, unless it is the last
//     waiter, in which case the flight context is canceled so the solver
//     stops burning a slot on an answer nobody wants.
//   - The flight is unlinked from the group before its waiters are
//     released, so a request arriving after completion (or after a leader
//     panic poisoned the flight) always starts fresh.
type flightGroup struct {
	mu      sync.Mutex
	flights map[string]*flight
	// onPanic is invoked once per leader panic (not per waiter) so the
	// server can count the contained panic exactly once.
	onPanic func()
}

type flight struct {
	done    chan struct{} // closed after val/err are set and the flight is unlinked
	val     any
	err     *apiError
	waiters int
	cancel  context.CancelFunc
}

func newFlightGroup(onPanic func()) *flightGroup {
	if onPanic == nil {
		onPanic = func() {}
	}
	return &flightGroup{flights: map[string]*flight{}, onPanic: onPanic}
}

// waiting reports the waiter count for key (tests and diagnostics).
func (g *flightGroup) waiting(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.flights[key]; ok {
		return f.waiters
	}
	return 0
}

// do returns the shared result for key, leading a new flight if none is in
// progress. ident names the solve in the log line of a leader panic
// (solveIdent). lead runs in its own goroutine under the flight context and a
// panic barrier; its result (or structured error) is fanned out to every
// waiter. shared reports whether this caller rode an existing flight.
// waitCtx bounds only this caller's wait — detaching early neither cancels
// nor corrupts the flight unless no other waiter remains.
func (g *flightGroup) do(key, ident string, waitCtx context.Context, lead func(ctx context.Context) (any, *apiError)) (val any, aerr *apiError, shared bool) {
	g.mu.Lock()
	f, ok := g.flights[key]
	if ok {
		f.waiters++
	} else {
		fctx, cancel := context.WithCancel(context.Background())
		f = &flight{done: make(chan struct{}), waiters: 1, cancel: cancel}
		g.flights[key] = f
		go g.run(key, ident, f, fctx, lead)
	}
	g.mu.Unlock()

	select {
	case <-f.done:
		if f.err != nil && f.err.code == CodeCanceled && waitCtx.Err() == nil {
			// The flight died because every earlier waiter abandoned it just
			// as this caller joined — this caller is still here, so the
			// cancellation was not its own. Lead a fresh flight.
			return g.do(key, ident, waitCtx, lead)
		}
		return f.val, f.err, ok
	case <-waitCtx.Done():
		g.detach(key, f)
		if waitCtx.Err() == context.DeadlineExceeded {
			return nil, &apiError{status: http.StatusGatewayTimeout, code: CodeDeadlineExceeded,
				message: "request deadline expired while waiting for the coalesced solve"}, ok
		}
		return nil, &apiError{status: 499, code: CodeCanceled,
			message: "request canceled while waiting for the coalesced solve"}, ok
	}
}

// run executes the leader under a panic barrier: a panic in the shared
// solve (the solver entry points already convert their own panics to
// errors — this catches everything else, including injected leader faults)
// poisons only this flight. Every waiter receives the structured 500 and
// the flight is unlinked before they wake, so the next request leads a
// fresh one.
func (g *flightGroup) run(key, ident string, f *flight, fctx context.Context, lead func(ctx context.Context) (any, *apiError)) {
	defer f.cancel()
	func() {
		defer func() {
			if rec := recover(); rec != nil {
				log.Printf("server: coalesced-solve leader panic (contained) in %s: %v", ident, rec)
				g.onPanic()
				f.err = &apiError{status: http.StatusInternalServerError, code: CodeInternal,
					message: fmt.Sprintf("internal error (coalesced solve panicked): %v", rec)}
			}
		}()
		f.val, f.err = lead(fctx)
	}()
	g.mu.Lock()
	if g.flights[key] == f {
		delete(g.flights, key)
	}
	g.mu.Unlock()
	close(f.done)
}

// detach removes one waiter that gave up early. The last waiter to leave
// cancels the flight context: with nobody left to read the answer, the
// solver should stop burning its admission slot. The flight stays linked —
// run unlinks it — so a racing new request either joins the dying flight
// before the cancellation lands (and gets its canceled error, a fair race)
// or arrives after unlinking and starts fresh.
func (g *flightGroup) detach(key string, f *flight) {
	g.mu.Lock()
	f.waiters--
	last := f.waiters == 0
	g.mu.Unlock()
	if last {
		f.cancel()
	}
}
