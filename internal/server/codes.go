package server

// Structured error codes. Every non-2xx response is a JSON body
// {"error": {"code": ..., "message": ...}} with one of these codes, so
// clients can switch on code instead of parsing messages. The constants
// are the single source of truth: every apiError site must name one of
// them (the registry analyzer in internal/analysis enforces this), and
// Codes() below is the registry that keeps dashboards and client
// switch statements honest — a code missing from the registry, or
// listed twice, fails the analyzer, and a duplicate or non-snake_case
// value fails TestErrorCodeRegistry.
const (
	CodeBadRequest       = "bad_request"
	CodeUnknownGraph     = "unknown_graph"
	CodeGraphExists      = "graph_exists"
	CodeGraphBusy        = "graph_busy"
	CodeUnknownAlgorithm = "unknown_algorithm"
	CodeWrongFamily      = "wrong_family"
	CodeDeadlineExceeded = "deadline_exceeded"
	CodeCanceled         = "canceled"
	CodeOverloaded       = "overloaded"
	CodeInternal         = "internal"
	// CodeNotLive rejects a mutation (or live-only query) aimed at a graph
	// loaded statically — or one whose live writer has been closed by a
	// delete/replace racing the request.
	CodeNotLive = "not_live"
	// CodeBacklog rejects a mutation when the graph's single-writer queue
	// is full — the write-side overload signal, a 429 with Retry-After.
	CodeBacklog = "mutation_backlog"
	// CodeQuotaExceeded rejects a request whose tenant is over its token-
	// bucket rate or concurrent-request cap — a 429 with Retry-After.
	CodeQuotaExceeded = "quota_exceeded"
	// CodeDeadlineInfeasible rejects a solve up front when the degradation
	// policy predicts that no registered algorithm — the requested one or
	// any fallback rung — can finish inside the request deadline; the body
	// carries estimated_ms so clients can retry with a realistic budget.
	CodeDeadlineInfeasible = "deadline_infeasible"
)

// Codes returns every registered structured error code, in declaration
// order. The list must stay in lockstep with the Code* constants above:
// the registry analyzer flags a constant that is missing here (or listed
// twice), and TestErrorCodeRegistry pins pairwise distinctness of the
// wire strings.
func Codes() []string {
	return []string{
		CodeBadRequest,
		CodeUnknownGraph,
		CodeGraphExists,
		CodeGraphBusy,
		CodeUnknownAlgorithm,
		CodeWrongFamily,
		CodeDeadlineExceeded,
		CodeCanceled,
		CodeOverloaded,
		CodeInternal,
		CodeNotLive,
		CodeBacklog,
		CodeQuotaExceeded,
		CodeDeadlineInfeasible,
	}
}
