package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"time"

	"repro"
	"repro/internal/server"
)

// live-churn: writes beside reads on a live graph. Every write bumps the
// version and invalidates the cache, and the live layer repairs the
// k*-core, snapshots and compacts.
var liveChurnSpec = serveSpec{rate: 100, sloMs: 50, maxLagMs: 50}

// liveChurnModel is served as servingSamples live graphs, and each job
// class rotates through them.
var liveChurnModel = model{"PT", 0.25}

// Job classes of live-churn, dealt 10/7/3 out of every 20 jobs.
const (
	churnMutate  = iota // POST /graphs/{g}/edges
	churnDensest        // GET /graphs/{g}/densest?omit_vertices=true
	churnSolve          // POST /solve/uds pkmc on the live graph
)

var churnDeck = []int{churnMutate: 10, churnDensest: 7, churnSolve: 3}

// Mutation batches: 1, 16 or 128 edges dealt 6/3/1; inserts and deletes
// dealt 7/3.
var (
	churnBatchSizes = []int{1, 16, 128}
	churnSizeDeck   = []int{6, 3, 1}
	churnKindDeck   = []int{7, 3} // insert, delete
)

// deleteLag: a delete only targets edges inserted at least this many jobs
// earlier, which have been applied by the time it is sent.
const deleteLag = 64

func runLiveChurn(c *runCtx) (*outcome, error) {
	graphs, fileBytes, err := writeServingInputs(c, []model{liveChurnModel})
	if err != nil {
		return nil, err
	}
	var bases []churnBase
	for _, sg := range graphs {
		lg, err := decodeFile(sg.path, false)
		if err != nil {
			return nil, err
		}
		bases = append(bases, newChurnBase(sg.name, lg.g))
	}
	setup := func(traced bool) (*serverInst, time.Duration, error) {
		var decode time.Duration
		inst, err := startServer(c, traced, func(srv *server.Server) error {
			for _, sg := range graphs {
				start := time.Now()
				g, err := dsd.LoadGraph(sg.path)
				if err != nil {
					return err
				}
				dur := time.Since(start)
				decode += dur
				c.rec.add(0, "graph", "graph.decode", start, dur, map[string]any{"graph": sg.name})
				lstart := time.Now()
				if _, err := srv.PutLive(sg.name, g, sg.path, false); err != nil {
					return err
				}
				c.rec.add(0, "live", "live.load", lstart, time.Since(lstart), map[string]any{"graph": sg.name})
			}
			return nil
		})
		return inst, decode, err
	}
	var warm []request
	for _, sg := range graphs {
		warm = append(warm, getRequest("warm", sg.name, densestPath(sg.name, true), nil),
			solveRequest("uds", sg.name, "pkmc", map[string]any{"budget_ms": warmBudget, "omit_vertices": true}, nil, "warm"))
	}
	return runServing(c, servingCase{
		spec:      liveChurnSpec,
		fileBytes: fileBytes,
		setup:     setup,
		warm:      warm,
		newGen:    func() func() job { return newChurnGen(c.seed, bases).next },
		after:     checkLiveRun,
		layers:    liveLayers,
	})
}

func densestPath(graph string, omitVertices bool) string {
	p := "/graphs/" + graph + "/densest"
	if omitVertices {
		p += "?omit_vertices=true"
	}
	return p
}

// churnBase is what the generator needs of one live graph's initial state.
type churnBase struct {
	name string
	n    int
	ends []int32 // endpoints of the base edges: a degree-biased vertex draw
}

func newChurnBase(name string, g *dsd.Graph) churnBase {
	edges := g.Edges()
	ends := make([]int32, 0, 2*len(edges))
	for _, e := range edges {
		ends = append(ends, e.U, e.V)
	}
	return churnBase{name: name, n: g.N(), ends: ends}
}

// churnTarget is the generator's state of one live graph.
type churnTarget struct {
	churnBase
	pending []pendingInsert
	pool    []dsd.Edge // inserted at least deleteLag jobs ago
}

type pendingInsert struct {
	job   int
	edges []dsd.Edge
}

// churnGen deals live-churn jobs deterministically from the seed. Each
// class rotates through the live graphs in turn.
type churnGen struct {
	r              *rng
	classes, sizes *deck
	kinds          *deck
	targets        []*churnTarget
	turn           [churnSolve + 1]int // per class: jobs dealt so far
	i              int
}

func newChurnGen(seed int64, bases []churnBase) *churnGen {
	g := &churnGen{
		r:       newRNG(seed, streamJobs),
		classes: newDeck(churnDeck),
		sizes:   newDeck(churnSizeDeck),
		kinds:   newDeck(churnKindDeck),
	}
	for _, b := range bases {
		g.targets = append(g.targets, &churnTarget{churnBase: b})
	}
	return g
}

func (g *churnGen) next() job {
	i := g.i
	g.i++
	for _, t := range g.targets {
		for len(t.pending) > 0 && t.pending[0].job <= i-deleteLag {
			t.pool = append(t.pool, t.pending[0].edges...)
			t.pending = t.pending[1:]
		}
	}
	class := g.classes.deal(g.r)
	t := g.targets[g.turn[class]%len(g.targets)]
	g.turn[class]++
	switch class {
	case churnMutate:
		size := churnBatchSizes[g.sizes.deal(g.r)]
		del := g.kinds.deal(g.r) == 1 && len(t.pool) >= size
		muts := make([]server.MutationOp, size)
		if del {
			for k := range muts {
				j := g.r.intn(len(t.pool))
				e := t.pool[j]
				t.pool[j] = t.pool[len(t.pool)-1]
				t.pool = t.pool[:len(t.pool)-1]
				muts[k] = server.MutationOp{Op: "delete", U: e.U, V: e.V}
			}
		} else {
			ins := make([]dsd.Edge, size)
			for k := range muts {
				u := int32(g.r.intn(t.n))
				v := t.ends[g.r.intn(len(t.ends))]
				if u == v {
					v = (v + 1) % int32(t.n)
				}
				ins[k] = dsd.Edge{U: u, V: v}
				muts[k] = server.MutationOp{Op: "insert", U: u, V: v}
			}
			t.pending = append(t.pending, pendingInsert{job: i, edges: ins})
		}
		return job{reqs: []request{{
			class: "mutate", graph: t.name, method: http.MethodPost, path: "/graphs/" + t.name + "/edges",
			body:  mustJSON(server.MutateRequest{Mutations: muts}),
			check: mutateCheck(size),
		}}}
	case churnDensest:
		return job{reqs: []request{getRequest("densest", t.name, densestPath(t.name, true), densestCheck)}}
	default:
		return job{reqs: []request{solveRequest("uds", t.name, "pkmc",
			map[string]any{"omit_vertices": true}, liveSolveCheck, "live-solve")}}
	}
}

func mutateCheck(size int) func(*reqRecord, []byte) string {
	return func(rec *reqRecord, body []byte) string {
		var resp server.MutateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return "live-churn mutate: undecodable response: " + err.Error()
		}
		rec.version = resp.Version
		rec.edges = resp.Inserted + resp.Deleted
		rec.changed = rec.edges > 0
		rec.touched, rec.recomputed, rec.compacted = resp.Touched, resp.Recomputed, resp.Compacted
		if rec.edges+resp.Noops != size {
			return fmt.Sprintf("live-churn mutate: batch of %d reported %d inserted, %d deleted, %d no-ops",
				size, resp.Inserted, resp.Deleted, resp.Noops)
		}
		return ""
	}
}

func densestCheck(rec *reqRecord, body []byte) string {
	var resp server.UDSResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return "live-churn densest: undecodable response: " + err.Error()
	}
	rec.version = resp.Version
	if resp.Density <= 0 || resp.Size == 0 || resp.KStar <= 0 {
		return fmt.Sprintf("live-churn densest: empty answer at version %d", resp.Version)
	}
	return ""
}

func liveSolveCheck(rec *reqRecord, body []byte) string {
	var resp server.UDSResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return "live-churn solve: undecodable response: " + err.Error()
	}
	rec.version, rec.cached, rec.coalesced, rec.solve = resp.Version, resp.Cached, resp.Coalesced, true
	if resp.Density <= 0 || resp.Size == 0 {
		return fmt.Sprintf("live-churn solve: empty answer at version %d", resp.Version)
	}
	return ""
}

// checkLiveRun checks what only the whole run shows, graph by graph:
// versions never go backwards, each changing batch gets a version of its
// own, and the maintained densest answer at the end equals a from-scratch
// BZ solve of the final snapshot.
func checkLiveRun(inst *serverInst, recs []*reqRecord, o *outcome) error {
	byGraph := map[string][]*reqRecord{}
	for _, r := range recs {
		byGraph[r.graph] = append(byGraph[r.graph], r)
	}
	for _, name := range inst.live {
		if msg := checkVersions(byGraph[name]); msg != "" {
			o.wrongf("live-churn %s: %s", name, msg)
		}
		if err := checkFinalDensest(inst, name, o); err != nil {
			return err
		}
	}
	return nil
}

func checkFinalDensest(inst *serverInst, name string, o *outcome) error {
	e, err := inst.srv.Registry().Get(name)
	if err != nil {
		return err
	}
	g, version := e.Live.Snapshot()
	var got server.UDSResponse
	rec := inst.client.do(getRequest("final", name, densestPath(name, false), func(_ *reqRecord, body []byte) string {
		if err := json.Unmarshal(body, &got); err != nil {
			return err.Error()
		}
		return ""
	}), time.Time{})
	if !rec.ok() || rec.wrong != "" {
		return fmt.Errorf("final densest read of %s: status %d: %v %s", name, rec.status, rec.err, rec.wrong)
	}
	want, err := dsd.SolveUDS(g, dsd.AlgoBZ, dsd.Options{})
	if err != nil {
		return fmt.Errorf("final BZ solve of %s: %w", name, err)
	}
	switch {
	case got.Version != version:
		o.wrongf("live-churn %s: final densest reports version %d, the snapshot is at %d", name, got.Version, version)
	case !closeTo(got.Density, want.Density) || !slices.Equal(sortedInts(got.Vertices), sortedInts(want.Vertices)):
		o.wrongf("live-churn %s: final densest (density %v, %d vertices) differs from BZ on the final snapshot (density %v, %d vertices)",
			name, got.Density, len(got.Vertices), want.Density, len(want.Vertices))
	}
	return nil
}

// checkVersions: on one graph, a request sent after another completed must
// see a version at least as new, strictly newer when both are batches that
// changed the graph.
func checkVersions(recs []*reqRecord) string {
	var vs []*reqRecord
	for _, r := range recs {
		if r.ok() && r.version > 0 {
			vs = append(vs, r)
		}
	}
	byDone := sortRecs(vs, func(r *reqRecord) time.Time { return r.done })
	bySent := sortRecs(vs, func(r *reqRecord) time.Time { return r.sent })
	var maxSeen, maxChanged int64
	j := 0
	for _, r := range bySent {
		for ; j < len(byDone) && byDone[j].done.Before(r.sent); j++ {
			maxSeen = max(maxSeen, byDone[j].version)
			if byDone[j].changed {
				maxChanged = max(maxChanged, byDone[j].version)
			}
		}
		if r.version < maxSeen {
			return fmt.Sprintf("%s request saw version %d after version %d was served", r.class, r.version, maxSeen)
		}
		if r.changed && r.version <= maxChanged {
			return fmt.Sprintf("mutation published version %d, not after earlier mutation's %d", r.version, maxChanged)
		}
	}
	return ""
}

// liveLayers reports the live layer from the traced half's records.
func liveLayers(o *outcome, recs []*reqRecord, ht *handlerTable) {
	mut := handlerMs(recs, ht, "mutate", nil)
	p90, ok := percentile(mut, 90)
	if !ok {
		o.notef("live.mutate_ms_p90 has fewer than %d mutations beyond it (%d mutations)", minBeyond, len(mut))
	}
	var touched, edges, recomputed, compactions, batches float64
	for _, r := range recs {
		if r.class != "mutate" || !r.ok() {
			continue
		}
		batches++
		touched += float64(r.touched)
		edges += float64(r.edges)
		if r.recomputed {
			recomputed++
		}
		if r.compacted {
			compactions++
		}
	}
	o.values["live.mutate_ms_p50"] = median(mut)
	o.values["live.mutate_ms_p90"] = p90
	o.values["live.touched_per_edge"] = ratio(touched, edges)
	o.values["live.recompute_share"] = ratio(recomputed, batches)
	o.values["live.compactions"] = compactions
	o.values["live.densest_ms_p50"] = median(handlerMs(recs, ht, "densest", nil))
	o.values["live.snapshot_solve_ms_p50"] = median(handlerMs(recs, ht, "live-solve",
		func(r *reqRecord) bool { return !r.cached && !r.coalesced }))
}
