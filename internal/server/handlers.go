package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"repro"
	"repro/internal/faultinject"
	"repro/internal/live"
)

// GraphInfo is the wire shape of one registry entry (GET /graphs).
type GraphInfo struct {
	Name         string    `json:"name"`
	Directed     bool      `json:"directed"`
	Live         bool      `json:"live,omitempty"`
	Version      int64     `json:"version"`
	N            int       `json:"n"`
	M            int64     `json:"m"`
	MaxDegree    int32     `json:"max_degree,omitempty"`
	MaxOutDegree int32     `json:"max_out_degree,omitempty"`
	MaxInDegree  int32     `json:"max_in_degree,omitempty"`
	AvgDegree    float64   `json:"avg_degree"`
	Source       string    `json:"source,omitempty"`
	LoadedAt     time.Time `json:"loaded_at"`
}

func infoOf(e *GraphEntry) GraphInfo {
	return GraphInfo{
		Name:         e.Name,
		Directed:     e.Directed,
		Live:         e.Live != nil,
		Version:      e.Version,
		N:            e.Stats.N,
		M:            e.Stats.M,
		MaxDegree:    e.Stats.MaxDegree,
		MaxOutDegree: e.Stats.MaxOutDegree,
		MaxInDegree:  e.Stats.MaxInDegree,
		AvgDegree:    e.Stats.AvgDegree,
		Source:       e.Source,
		LoadedAt:     e.LoadedAt,
	}
}

// LoadRequest is the POST /graphs body. Exactly one of Path (a server-side
// file, sniffed like the CLIs: text or compact binary, either gzipped) and
// Edges (an inline text edge list) must be set.
type LoadRequest struct {
	Name     string `json:"name"`
	Directed bool   `json:"directed"`
	Path     string `json:"path,omitempty"`
	Edges    string `json:"edges,omitempty"`
	// Replace swaps an existing name under a bumped version instead of
	// failing with graph_exists.
	Replace bool `json:"replace,omitempty"`
	// Live registers the graph as mutable: POST /graphs/{name}/edges
	// accepts batched edge insertions and deletions, each batch advancing
	// the served version. Undirected only.
	Live bool `json:"live,omitempty"`
}

// SolveRequest is the POST /solve/{uds,dds} body.
type SolveRequest struct {
	Graph   string       `json:"graph"`
	Algo    string       `json:"algo,omitempty"` // empty = the family default (pkmc / pwc)
	Options SolveOptions `json:"options,omitempty"`
}

// SolveOptions mirrors dsd.Options on the wire, plus the per-request
// deadline and response shaping.
type SolveOptions struct {
	Workers    int     `json:"workers,omitempty"`
	Epsilon    float64 `json:"epsilon,omitempty"`
	Delta      float64 `json:"delta,omitempty"`
	Iterations int     `json:"iterations,omitempty"`
	// BudgetMs caps the slow baselines, keeping their best-so-far answer.
	BudgetMs int64 `json:"budget_ms,omitempty"`
	// TimeoutMs is the hard per-request deadline; exceeding it returns a
	// structured deadline_exceeded error. 0 uses the server default.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// OmitVertices drops the vertex arrays from the response — the density
	// and sizes are often all a dashboard needs, and hub subgraphs can
	// span millions of ids.
	OmitVertices bool `json:"omit_vertices,omitempty"`
	// Trace returns the solver's observability record (phase timings,
	// h-index iteration log, parallel-runtime counters) in the response.
	// Trace-requested solves always run fresh — a cached result carries no
	// trace — but their (traceless) result still lands in the cache for
	// later untraced requests.
	Trace bool `json:"trace,omitempty"`
}

// SolveAnswer is the family-neutral head of a solve response: the graph
// state solved, the solver that ran, and the density it found.
type SolveAnswer struct {
	Graph     string  `json:"graph"`
	Version   int64   `json:"version"`
	Algorithm string  `json:"algorithm"`
	Density   float64 `json:"density"`
}

// SolveMeta is the per-request tail of a solve response: how this request
// was served. The pipeline stamps it on every answer it writes, fresh or
// from the cache; cached entries are stored without it.
type SolveMeta struct {
	Cached bool `json:"cached"`
	// Coalesced marks an answer that rode another request's identical
	// in-flight solve instead of running its own.
	Coalesced bool `json:"coalesced,omitempty"`
	// Degraded marks an answer computed by a cheaper algorithm than the
	// request named, because the deadline-aware policy predicted the
	// requested one would miss the deadline; DegradedFrom names what was
	// asked for and Guarantee the approximation bound actually delivered.
	Degraded     bool   `json:"degraded,omitempty"`
	DegradedFrom string `json:"degraded_from,omitempty"`
	Guarantee    string `json:"guarantee,omitempty"`
	// Maintained marks an answer read from a live graph's incrementally
	// maintained k*-core instead of a solver run: the solver named returns
	// exactly the k*-core, so it would have returned this answer on the
	// snapshot at this version. It carries no iteration count.
	Maintained bool    `json:"maintained,omitempty"`
	ElapsedMs  float64 `json:"elapsed_ms"`
	// Trace is present only when the request set options.trace.
	Trace *dsd.Trace `json:"trace,omitempty"`
}

func (a *SolveAnswer) answer() *SolveAnswer { return a }
func (m *SolveMeta) meta() *SolveMeta       { return m }

// UDSResponse is the POST /solve/uds answer.
type UDSResponse struct {
	SolveAnswer
	Size       int     `json:"size"`
	KStar      int32   `json:"k_star,omitempty"`
	Iterations int     `json:"iterations,omitempty"`
	Vertices   []int32 `json:"vertices,omitempty"`
	SolveMeta
}

// DDSResponse is the POST /solve/dds answer.
type DDSResponse struct {
	SolveAnswer
	SizeS      int     `json:"size_s"`
	SizeT      int     `json:"size_t"`
	XStar      int32   `json:"x_star,omitempty"`
	YStar      int32   `json:"y_star,omitempty"`
	Iterations int     `json:"iterations,omitempty"`
	TimedOut   bool    `json:"timed_out,omitempty"`
	S          []int32 `json:"s,omitempty"`
	T          []int32 `json:"t,omitempty"`
	SolveMeta
}

// decodeJSON strictly parses the request body into v.
func decodeJSON(r *http.Request, v any) *apiError {
	dec := json.NewDecoder(io.LimitReader(r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return errBadRequest("malformed JSON body: " + err.Error())
	}
	return nil
}

// handleListGraphs serves GET /graphs.
func (s *Server) handleListGraphs(w http.ResponseWriter, _ *http.Request) *apiError {
	entries := s.reg.List()
	infos := make([]GraphInfo, 0, len(entries))
	for _, e := range entries {
		infos = append(infos, infoOf(e))
	}
	writeJSON(w, http.StatusOK, map[string]any{"graphs": infos})
	return nil
}

// handleGetGraph serves GET /graphs/{name}.
func (s *Server) handleGetGraph(w http.ResponseWriter, r *http.Request) *apiError {
	e, err := s.reg.Get(r.PathValue("name"))
	if err != nil {
		return &apiError{status: http.StatusNotFound, code: CodeUnknownGraph, message: err.Error()}
	}
	writeJSON(w, http.StatusOK, infoOf(e))
	return nil
}

// handleDeleteGraph serves DELETE /graphs/{name}.
func (s *Server) handleDeleteGraph(w http.ResponseWriter, r *http.Request) *apiError {
	if err := s.reg.Remove(r.PathValue("name")); err != nil {
		return &apiError{status: http.StatusNotFound, code: CodeUnknownGraph, message: err.Error()}
	}
	w.WriteHeader(http.StatusNoContent)
	return nil
}

// handleLoadGraph serves POST /graphs.
func (s *Server) handleLoadGraph(w http.ResponseWriter, r *http.Request) *apiError {
	var req LoadRequest
	if err := decodeJSON(r, &req); err != nil {
		return err
	}
	if req.Name == "" {
		return errBadRequest("name is required")
	}
	if (req.Path == "") == (req.Edges == "") {
		return errBadRequest("exactly one of path and edges is required")
	}
	if req.Live && req.Directed {
		return errBadRequest("live graphs must be undirected (incremental core maintenance has no directed analogue)")
	}
	// Parsing a multi-gigabyte edge list is solver-grade work; loads share
	// the solve semaphore (and count against the tenant's quota).
	release, aerr := s.quota.admit(tenantOf(r))
	if aerr != nil {
		return aerr
	}
	defer release()
	if aerr := s.acquire(r.Context()); aerr != nil {
		return aerr
	}
	defer s.release()
	var (
		e   *GraphEntry
		err error
	)
	switch {
	case req.Live:
		// Live loads parse first (the seed core decomposition runs inside
		// PutLive) and register through the live path.
		var g *dsd.Graph
		source := "inline"
		if req.Path != "" {
			g, err = dsd.LoadGraph(req.Path)
			source = req.Path
		} else {
			g, err = dsd.ReadGraph(strings.NewReader(req.Edges))
		}
		if err == nil {
			e, err = s.reg.PutLive(req.Name, g, source, req.Replace, s.liveConfig())
		}
	case req.Path != "":
		e, err = s.reg.LoadFile(req.Name, req.Path, req.Directed, req.Replace)
	default:
		e, err = s.reg.LoadReader(req.Name, strings.NewReader(req.Edges), req.Directed, req.Replace)
	}
	switch {
	case errors.Is(err, ErrGraphExists):
		return &apiError{status: http.StatusConflict, code: CodeGraphExists, message: err.Error()}
	case errors.Is(err, ErrGraphBusy):
		return &apiError{status: http.StatusConflict, code: CodeGraphBusy, message: err.Error(), retryAfter: 1}
	case err != nil:
		return errBadRequest("loading graph: " + err.Error())
	}
	writeJSON(w, http.StatusCreated, infoOf(e))
	return nil
}

// cacheKey canonicalizes a solve request. The graph version scopes the key
// to the exact graph state — for live graphs the version comes from the
// same Snapshot call as the solved graph, so key and data can never alias
// different states; every option that can steer the answer is folded in.
// The request timeout is deliberately excluded — it decides whether a run
// finishes, never what a finished run returns. Cache.InvalidateGraph
// relies on the "name@" prefix.
func cacheKey(name string, version int64, family, algo string, o SolveOptions) string {
	return fmt.Sprintf("%s@%d|%s|%s|w%d|e%g|d%g|i%d|b%d|v%t",
		name, version, family, algo,
		o.Workers, o.Epsilon, o.Delta, o.Iterations, o.BudgetMs, !o.OmitVertices)
}

// requestTimeout resolves a solve request's effective deadline: its own
// timeout_ms, else the server default, both capped by the server maximum.
// 0 means unbounded.
func (s *Server) requestTimeout(o SolveOptions) time.Duration {
	timeout := s.cfg.DefaultTimeout
	if o.TimeoutMs > 0 {
		timeout = time.Duration(o.TimeoutMs) * time.Millisecond
	}
	if s.cfg.MaxTimeout > 0 && (timeout <= 0 || timeout > s.cfg.MaxTimeout) {
		timeout = s.cfg.MaxTimeout
	}
	return timeout
}

// withTimeout layers timeout over parent; 0 means no deadline.
func withTimeout(parent context.Context, timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout <= 0 {
		return context.WithCancel(parent)
	}
	return context.WithTimeout(parent, timeout)
}

// solveError maps a solver failure to a structured response. A recovered
// solver panic (dsd.ErrInternal) becomes a 500 internal error and bumps the
// panic counter — the request fails, the process keeps serving; its log
// line names the solve (solveIdent).
func (s *Server) solveError(ctx context.Context, ident string, err error) *apiError {
	switch {
	case errors.Is(err, dsd.ErrUnknownAlgorithm):
		// Normally caught by the up-front ValidateAlgorithm check; this
		// covers dispatch paths that reach the solver directly.
		return &apiError{status: http.StatusBadRequest, code: CodeUnknownAlgorithm, message: err.Error()}
	case errors.Is(err, dsd.ErrCanceled) && errors.Is(ctx.Err(), context.DeadlineExceeded):
		return &apiError{status: http.StatusGatewayTimeout, code: CodeDeadlineExceeded,
			message: "solver exceeded the request deadline: " + err.Error()}
	case errors.Is(err, dsd.ErrCanceled):
		return &apiError{status: 499, code: CodeCanceled, message: "request canceled: " + err.Error()}
	case errors.Is(err, dsd.ErrInternal):
		s.metrics.Panics.Add(1)
		var pe *dsd.PanicError
		if errors.As(err, &pe) {
			log.Printf("server: solver panic (contained) in %s: %v\n%s", ident, pe.Value, pe.Stack)
		}
		return &apiError{status: http.StatusInternalServerError, code: CodeInternal, message: err.Error()}
	default:
		return &apiError{status: http.StatusInternalServerError, code: CodeInternal, message: err.Error()}
	}
}

// solveIdent names one solve in log lines: graph@version, family and
// algorithm.
func solveIdent(graph string, version int64, family string, algo dsd.Algo) string {
	return fmt.Sprintf("%s@%d %s/%s", graph, version, family, algo)
}

// solveFamily adapts the solve pipeline to one problem family: G is the
// graph state a solve reads, R the family's wire response. Everything else
// about serving a solve is shared.
type solveFamily[G, R any] struct {
	problem dsd.Problem
	// maintained, when set, answers a request from state the graph keeps
	// up to date anyway, with no snapshot and no solver run; ok is false
	// when the request needs a solve.
	maintained func(e *GraphEntry, algo dsd.Algo, o SolveOptions) (resp R, ok bool)
	// resolve pins the graph state a request solves and its version.
	resolve func(e *GraphEntry) (G, int64)
	// solve runs algo on g and fills the family's answer fields;
	// cacheable is false for answers that must not be stored.
	solve func(g G, algo dsd.Algo, o dsd.Options, omitVertices bool) (resp R, cacheable bool, err error)
}

// solveResponse is what the pipeline needs of a wire response R: its
// shared head and per-request tail.
type solveResponse[R any] interface {
	*R
	answer() *SolveAnswer
	meta() *SolveMeta
}

var udsFamily = solveFamily[*dsd.Graph, UDSResponse]{
	problem: dsd.ProblemUDS,
	// A live graph maintains its k*-core, which is exactly what a KStarCore
	// solver returns on the snapshot at the same version: serve it as that
	// solver's answer. Traced and budgeted requests ask for a run, so they
	// take the snapshot path.
	maintained: func(e *GraphEntry, algo dsd.Algo, o SolveOptions) (UDSResponse, bool) {
		if e.Live == nil || o.Trace || o.BudgetMs > 0 {
			return UDSResponse{}, false
		}
		info, ok := dsd.Algorithm(dsd.ProblemUDS, algo)
		if !ok || !info.KStarCore {
			return UDSResponse{}, false
		}
		return densestResponse(e.Name, info.Display, e.Live.Densest(), o.OmitVertices), true
	},
	// Live graphs solve against an immutable snapshot: the (graph, version)
	// pair is taken atomically, so concurrent mutations neither perturb the
	// running solver nor let a result land in the cache under a version it
	// does not match.
	resolve: func(e *GraphEntry) (*dsd.Graph, int64) {
		if e.Live != nil {
			return e.Live.Snapshot()
		}
		return e.G, e.Version
	},
	solve: func(g *dsd.Graph, algo dsd.Algo, o dsd.Options, omitVertices bool) (UDSResponse, bool, error) {
		res, err := dsd.SolveUDS(g, algo, o)
		if err != nil {
			return UDSResponse{}, false, err
		}
		resp := UDSResponse{
			SolveAnswer: SolveAnswer{Algorithm: res.Algorithm, Density: res.Density},
			Size:        len(res.Vertices),
			KStar:       res.KStar,
			Iterations:  res.Iterations,
		}
		if !omitVertices {
			resp.Vertices = res.Vertices
		}
		return resp, true, nil
	},
}

var ddsFamily = solveFamily[*dsd.Digraph, DDSResponse]{
	problem: dsd.ProblemDDS,
	resolve: func(e *GraphEntry) (*dsd.Digraph, int64) { return e.D, e.Version },
	solve: func(d *dsd.Digraph, algo dsd.Algo, o dsd.Options, omitVertices bool) (DDSResponse, bool, error) {
		res, err := dsd.SolveDDS(d, algo, o)
		if err != nil {
			return DDSResponse{}, false, err
		}
		resp := DDSResponse{
			SolveAnswer: SolveAnswer{Algorithm: res.Algorithm, Density: res.Density},
			SizeS:       len(res.S),
			SizeT:       len(res.T),
			XStar:       res.XStar,
			YStar:       res.YStar,
			Iterations:  res.Iterations,
			TimedOut:    res.TimedOut,
		}
		if !omitVertices {
			resp.S, resp.T = res.S, res.T
		}
		// A budget-truncated sweep is wall-clock dependent — rerunning it
		// with more time may do better, so best-so-far answers are not
		// cached.
		return resp, !res.TimedOut, nil
	},
}

// solveHandler serves POST /solve/{family} through the one solve pipeline.
// Stages, in order: decode, quota, registry lookup, family check,
// algorithm validation, the maintained answer (which ends the request when
// the family has one for it), graph resolution, degradation plan, cache
// key, cache read, then the traced path or the coalesced flight — both via
// solveInSlot — and the response.
func solveHandler[G, R any, P solveResponse[R]](s *Server, f solveFamily[G, R]) apiHandler {
	family := string(f.problem)
	return func(w http.ResponseWriter, r *http.Request) *apiError {
		var req SolveRequest
		if err := decodeJSON(r, &req); err != nil {
			return err
		}
		release, aerr := s.quota.admit(tenantOf(r))
		if aerr != nil {
			return aerr
		}
		defer release()
		e, err := s.reg.Get(req.Graph)
		if err != nil {
			return &apiError{status: http.StatusNotFound, code: CodeUnknownGraph, message: err.Error()}
		}
		if e.Directed != (f.problem == dsd.ProblemDDS) {
			kind, route := "undirected", "uds"
			if e.Directed {
				kind, route = "directed", "dds"
			}
			return &apiError{status: http.StatusBadRequest, code: CodeWrongFamily,
				message: fmt.Sprintf("graph %q is %s; use /solve/%s", e.Name, kind, route)}
		}
		if err := dsd.ValidateAlgorithm(f.problem, dsd.Algo(req.Algo)); err != nil {
			return &apiError{status: http.StatusBadRequest, code: CodeUnknownAlgorithm, message: err.Error()}
		}
		if f.maintained != nil {
			// No slot, flight or cache entry: the answer is already kept.
			mstart := time.Now()
			if resp, ok := f.maintained(e, effectiveAlgo(family, req.Algo), req.Options); ok {
				s.metrics.MaintainedSolves.Add(1)
				m := P(&resp).meta()
				m.Maintained, m.ElapsedMs = true, msSince(mstart)
				writeJSON(w, http.StatusOK, resp)
				return nil
			}
		}
		g, version := f.resolve(e)
		timeout := s.requestTimeout(req.Options)
		// The request keys, coalesces, and caches as the algorithm it
		// actually runs: the family default for an empty name, the ladder
		// rung when degraded. The cached entry stays canonical (undegraded)
		// so direct requesters of the approximation never see degraded: true.
		algo, degradedFrom, guarantee, aerr := s.planSolve(family, e.Name, effectiveAlgo(family, req.Algo), timeout)
		if aerr != nil {
			return aerr
		}
		key := cacheKey(e.Name, version, family, string(algo), req.Options)
		ident := solveIdent(e.Name, version, family, algo)
		start := time.Now()
		finish := func(resp R, cached, coalesced bool) *apiError {
			m := P(&resp).meta()
			m.Cached, m.Coalesced = cached, coalesced
			if degradedFrom != "" {
				m.Degraded, m.DegradedFrom, m.Guarantee = true, degradedFrom, guarantee
			}
			m.ElapsedMs = msSince(start)
			writeJSON(w, http.StatusOK, resp)
			return nil
		}
		if !req.Options.Trace {
			if v, ok := s.cache.Get(key); ok {
				return finish(v.(R), true, false)
			}
		}
		solve := func(ctx context.Context) (any, *apiError) {
			sstart := time.Now()
			var tr *dsd.Trace // nil keeps the solver on its untraced fast path
			if req.Options.Trace || s.cfg.TracePhases {
				tr = &dsd.Trace{}
			}
			resp, cacheable, err := f.solve(g, algo, dsd.Options{
				Workers:    req.Options.Workers,
				Epsilon:    req.Options.Epsilon,
				Delta:      req.Options.Delta,
				Iterations: req.Options.Iterations,
				Budget:     time.Duration(req.Options.BudgetMs) * time.Millisecond,
				Ctx:        ctx,
				Trace:      tr,
			}, req.Options.OmitVertices)
			if err != nil {
				return nil, s.solveError(ctx, ident, err)
			}
			a := P(&resp).answer()
			a.Graph, a.Version = e.Name, version
			// Phase timings feed the aggregate metrics only under
			// Config.TracePhases, never from a client-requested trace alone.
			var phases []dsd.TracePhase
			if s.cfg.TracePhases {
				phases = tr.Phases
			}
			s.metrics.ObserveSolve(e.Name, a.Algorithm, string(algo), time.Since(sstart), phases)
			if cacheable {
				s.cache.Put(key, resp) // stored without the per-run trace
			}
			if req.Options.Trace {
				P(&resp).meta().Trace = tr
			}
			return resp, nil
		}
		var (
			v      any
			shared bool
		)
		if req.Options.Trace {
			// A trace is a per-run artifact: traced solves never coalesce
			// and run under the request's own deadline.
			v, aerr = s.solveInSlot(r.Context(), timeout, solve)
		} else {
			// The request's deadline bounds only its own wait. The shared
			// solve runs under the flight context, capped by the server
			// maximum only: it outlives any one impatient waiter and stops
			// when the last waiter detaches or the cap expires.
			waitCtx, cancel := withTimeout(r.Context(), timeout)
			defer cancel()
			v, aerr, shared = s.flights.do(key, ident, waitCtx, func(fctx context.Context) (any, *apiError) {
				return s.solveInSlot(fctx, s.cfg.MaxTimeout, func(ctx context.Context) (any, *apiError) {
					if err := faultinject.Hit(faultinject.SiteFlightLeader); err != nil {
						return nil, &apiError{status: http.StatusInternalServerError, code: CodeInternal,
							message: "injected flight-leader fault: " + err.Error()}
					}
					return solve(ctx)
				})
			})
			if shared {
				s.metrics.CoalescedSolves.Add(1)
			}
		}
		if aerr != nil {
			return aerr
		}
		return finish(v.(R), false, shared)
	}
}

// solveInSlot runs one solve in an admission slot: acquire under parent,
// layer timeout over it, pass the test gate, solve. Both a deadline and a
// canceled parent (client disconnect, last flight waiter gone) stop the
// solver. The traced path and the flight leader differ only in parent and
// timeout.
func (s *Server) solveInSlot(parent context.Context, timeout time.Duration, solve func(context.Context) (any, *apiError)) (any, *apiError) {
	if aerr := s.acquire(parent); aerr != nil {
		return nil, aerr
	}
	defer s.release()
	ctx, cancel := withTimeout(parent, timeout)
	defer cancel()
	if s.solveGate != nil {
		s.solveGate()
	}
	return solve(ctx)
}

// MutationOp is one edge change in a POST /graphs/{name}/edges batch.
type MutationOp struct {
	Op string `json:"op"` // "insert" or "delete"
	U  int32  `json:"u"`
	V  int32  `json:"v"`
}

// MutateRequest is the POST /graphs/{name}/edges body: one batch, applied
// atomically with respect to validation (a malformed entry rejects the
// whole batch before any edge is touched).
type MutateRequest struct {
	Mutations []MutationOp `json:"mutations"`
}

// MutateResponse reports one applied batch: the post-batch version, the
// apply accounting (repair size, recompute flag), and the
// standing densest-subgraph answer.
type MutateResponse struct {
	Graph string `json:"graph"`
	live.ApplyResult
	// ElapsedMs is the full request wall time, queue wait included
	// (ApplyMs inside is the writer's apply alone).
	ElapsedMs float64 `json:"elapsed_ms"`
}

// errNotLive rejects mutation-path requests aimed at a static graph.
func errNotLive(name string) *apiError {
	return &apiError{status: http.StatusConflict, code: CodeNotLive,
		message: fmt.Sprintf("graph %q is not live; load it with \"live\": true to mutate it", name)}
}

// handleMutateGraph serves POST /graphs/{name}/edges: batched edge
// mutations through the graph's single writer goroutine. Admission is the
// writer's bounded queue, not the solve semaphore — mutations are
// O(changed neighborhood), and serializing them behind multi-second solves
// would make the write path unusable exactly when the read path is busy.
func (s *Server) handleMutateGraph(w http.ResponseWriter, r *http.Request) *apiError {
	release, aerr := s.quota.admit(tenantOf(r))
	if aerr != nil {
		return aerr
	}
	defer release()
	e, err := s.reg.Get(r.PathValue("name"))
	if err != nil {
		return &apiError{status: http.StatusNotFound, code: CodeUnknownGraph, message: err.Error()}
	}
	if e.Live == nil {
		return errNotLive(e.Name)
	}
	var req MutateRequest
	if aerr := decodeJSON(r, &req); aerr != nil {
		return aerr
	}
	if len(req.Mutations) == 0 {
		return errBadRequest("mutations must be non-empty")
	}
	batch := make([]live.Mutation, len(req.Mutations))
	for i, m := range req.Mutations {
		switch m.Op {
		case "insert":
			batch[i] = live.Mutation{Op: live.OpInsert, U: m.U, V: m.V}
		case "delete":
			batch[i] = live.Mutation{Op: live.OpDelete, U: m.U, V: m.V}
		default:
			return errBadRequest(fmt.Sprintf("mutation %d: op must be \"insert\" or \"delete\", got %q", i, m.Op))
		}
	}
	start := time.Now()
	res, err := e.Live.Enqueue(r.Context(), batch)
	if err != nil {
		var pe *live.ApplyPanicError
		switch {
		case errors.Is(err, live.ErrBacklog):
			return &apiError{status: http.StatusTooManyRequests, code: CodeBacklog,
				message: fmt.Sprintf("mutation queue for %q is full", e.Name), retryAfter: 1}
		case errors.Is(err, live.ErrClosed):
			return &apiError{status: http.StatusConflict, code: CodeNotLive,
				message: fmt.Sprintf("graph %q was removed or replaced while the mutation was queued", e.Name)}
		case errors.As(err, &pe):
			s.metrics.Panics.Add(1)
			log.Printf("server: live apply panic (contained): %v", pe.Value)
			return &apiError{status: http.StatusInternalServerError, code: CodeInternal, message: err.Error()}
		case errors.Is(err, context.DeadlineExceeded):
			return &apiError{status: http.StatusGatewayTimeout, code: CodeDeadlineExceeded,
				message: "request deadline expired while the mutation was queued"}
		case errors.Is(err, context.Canceled):
			return &apiError{status: 499, code: CodeCanceled, message: "request canceled: " + err.Error()}
		default:
			return errBadRequest(err.Error()) // batch validation
		}
	}
	s.metrics.ObserveMutation(e.Name, res.Inserted+res.Deleted, res.Touched, res.Recomputed)
	writeJSON(w, http.StatusOK, MutateResponse{Graph: e.Name, ApplyResult: res, ElapsedMs: msSince(start)})
	return nil
}

// handleDensest serves GET /graphs/{name}/densest: the live graph's
// standing 2-approximate densest subgraph (the incrementally maintained
// k*-core), the answer kept for the current version, without a solver
// run, a cache entry, or a semaphore slot. ?omit_vertices=true drops the
// vertex array.
func (s *Server) handleDensest(w http.ResponseWriter, r *http.Request) *apiError {
	e, err := s.reg.Get(r.PathValue("name"))
	if err != nil {
		return &apiError{status: http.StatusNotFound, code: CodeUnknownGraph, message: err.Error()}
	}
	if e.Live == nil {
		return errNotLive(e.Name)
	}
	start := time.Now()
	omit := r.URL.Query().Get("omit_vertices")
	resp := densestResponse(e.Name, "DynamicKStarCore", e.Live.Densest(), omit == "true" || omit == "1")
	resp.ElapsedMs = msSince(start)
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// densestResponse is the wire form of a live graph's maintained k*-core
// answer, named algorithm.
func densestResponse(graph, algorithm string, d live.Densest, omitVertices bool) UDSResponse {
	resp := UDSResponse{
		SolveAnswer: SolveAnswer{Graph: graph, Version: d.Version, Algorithm: algorithm, Density: d.Density},
		Size:        len(d.Vertices),
		KStar:       d.KStar,
	}
	if !omitVertices {
		resp.Vertices = d.Vertices
	}
	return resp
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}
