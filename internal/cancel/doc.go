// Package cancel carries the shared cooperative-cancellation protocol of
// the context-aware solvers. The long-running algorithms (the exact flow
// searches, Frank–Wolfe sweeps, Greedy++ rounds) poll Check at
// natural iteration boundaries and unwind with a wrapped ErrCanceled once
// the caller's context is done; the public API re-exports ErrCanceled so
// callers can errors.Is against a single sentinel regardless of which
// solver tripped.
package cancel
