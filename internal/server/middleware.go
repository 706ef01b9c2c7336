package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"time"
)

// apiError carries a structured error through handler returns. Its code
// must be one of the registered Code* constants in codes.go — the
// registry analyzer rejects a literal or unregistered string here.
type apiError struct {
	status  int
	code    string
	message string
	// retryAfter, when positive, emits a Retry-After header (seconds) —
	// set on overload rejections so well-behaved clients back off. The
	// emitted value is jittered ±20% by writeError so a herd of clients
	// sharing one rejection wave does not retry in lockstep.
	retryAfter int
	// estimatedMs, when positive, rides along in the error body — set on
	// deadline_infeasible rejections so clients learn the predicted cost.
	estimatedMs float64
}

func (e *apiError) Error() string { return e.message }

func errBadRequest(msg string) *apiError {
	return &apiError{status: http.StatusBadRequest, code: CodeBadRequest, message: msg}
}

// errorBody is the JSON wire shape of a failed request.
type errorBody struct {
	Error struct {
		Code        string  `json:"code"`
		Message     string  `json:"message"`
		EstimatedMs float64 `json:"estimated_ms,omitempty"`
	} `json:"error"`
}

// jitterRetryAfter spreads a Retry-After value uniformly within ±20% so
// the clients sharing one overload wave (a shed queue, an exhausted quota
// bucket) come back staggered instead of as a synchronized herd that
// recreates the spike. Never returns less than one second — zero would
// invite an immediate retry, defeating the header.
func jitterRetryAfter(seconds int) int {
	if seconds < 1 {
		seconds = 1
	}
	j := int(math.Round(float64(seconds) * (0.8 + 0.4*rand.Float64())))
	if j < 1 {
		j = 1
	}
	return j
}

// writeError emits the structured error response and counts it.
func (s *Server) writeError(w http.ResponseWriter, e *apiError) {
	s.metrics.Error(e.code)
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(jitterRetryAfter(e.retryAfter)))
	}
	var body errorBody
	body.Error.Code = e.code
	body.Error.Message = e.message
	body.Error.EstimatedMs = e.estimatedMs
	writeJSON(w, e.status, body)
}

// writeJSON emits v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

// apiHandler is a handler that reports failure as a structured error.
type apiHandler func(w http.ResponseWriter, r *http.Request) *apiError

// route wraps an apiHandler with the metrics instrumentation and the
// last-resort panic barrier: the active-request gauge brackets the handler,
// completion records the per-route count and latency, and a panic escaping
// the handler (solver panics are already converted to errors by the dsd
// entry points — this catches everything else) is recovered into a
// structured 500 so one poisoned request cannot take the process down.
func (s *Server) route(label string, h apiHandler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.metrics.Active.Add(1)
		start := time.Now()
		defer func() {
			s.metrics.Observe(label, time.Since(start))
			s.metrics.Active.Add(-1)
		}()
		defer func() {
			if rec := recover(); rec != nil {
				s.metrics.Panics.Add(1)
				log.Printf("server: recovered panic in %s: %v", label, rec)
				// If the handler already wrote a header this is a no-op
				// write on a half-sent response; nothing better exists.
				s.writeError(w, &apiError{status: http.StatusInternalServerError, code: CodeInternal,
					message: fmt.Sprintf("internal error (recovered panic): %v", rec)})
			}
		}()
		if err := h(w, r); err != nil {
			s.writeError(w, err)
		}
	})
}

// acquire is the admission-control gate for the expensive handlers (solve
// misses and graph loads): the request either takes a semaphore slot or
// waits for one — bounded by Config.MaxQueueWait — and is rejected as
// overloaded (503 with a Retry-After) when the wait expires or its context
// dies first. The semaphore is sized to GOMAXPROCS by default — the
// solvers are CPU-bound and already parallel internally, so stacking more
// concurrent solves than cores only adds memory pressure and tail latency.
// Bounding the queue wait keeps a saturated server shedding load instead of
// accumulating an unbounded convoy of goroutines that will all time out
// anyway. Cache hits never pass through here; repeated queries on an
// unchanged graph stay O(1) even under a full queue. The gate takes a
// bare context rather than a request because a coalesced flight's leader
// queues under the shared flight context, not any single waiter's.
func (s *Server) acquire(ctx context.Context) *apiError {
	// Fast path: a free slot needs no timer.
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	wait := s.cfg.MaxQueueWait
	retry := int(wait / (2 * time.Second))
	if retry < 1 {
		retry = 1
	}
	var expired <-chan time.Time
	if wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		expired = t.C
	}
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-expired:
		return &apiError{status: http.StatusServiceUnavailable, code: CodeOverloaded,
			message:    fmt.Sprintf("server saturated: no solver slot within %v", wait),
			retryAfter: retry}
	case <-ctx.Done():
		return &apiError{status: http.StatusServiceUnavailable, code: CodeOverloaded,
			message:    "request expired while queued for a solver slot",
			retryAfter: retry}
	}
}

// release returns the slot taken by acquire.
func (s *Server) release() { <-s.sem }
