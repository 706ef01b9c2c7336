package main

import (
	"fmt"
	"net/http"
	"time"

	"repro"
	"repro/internal/server"
)

// serve-mix: a read-only query mix against resident graphs, where the
// server's decode, cache, coalescing and admission stages do most of the
// work.
var serveMixSpec = serveSpec{rate: 60, sloMs: 100, maxLagMs: 50}

// serveMixModels are PT, EW and AM, in that order; each is served as
// servingSamples graphs.
var serveMixModels = []model{{"PT", 0.25}, {"EW", 0.25}, {"AM", 0.25}}

// Job classes of serve-mix, dealt 28/4/7/1 out of every 40 jobs. One
// exact job in 40 keeps a heavy tail above p97; at one in 20 its solves
// occupied a core a fifth of the time and the misses queued behind them
// set p90. Every solve asks for one worker, so the server's nproc solve
// slots run side by side instead of contending for the same cores.
const (
	mixUDS   = iota // Zipf-drawn UDS key: hot keys hit, the tail misses
	mixPair         // two identical requests on a fresh key, sent together
	mixPWC          // Zipf-drawn PWC key on AM
	mixExact        // exact-pruned on PT under a fresh key: the heavy tail
)

var mixDeck = []int{mixUDS: 28, mixPair: 4, mixPWC: 7, mixExact: 1}

// mixUDSAlgos are the cheap deterministic UDS solvers the Zipf keys draw
// from; their answers do not depend on the options varied in the key.
var mixUDSAlgos = []string{"pkmc", "bz", "charikar", "pbu"}

const (
	// mixUDSKeys UDS keys, eight times the default 256-entry cache. A key
	// is a (graph, algorithm, omit_vertices) combination plus one of
	// several budget_ms values: options that change the cache key but not
	// the answer, standing in for many clients' differing options.
	mixUDSKeys = 2048
	// mixPWCKeys variants of the PWC query on the AM samples.
	mixPWCKeys = 128
	mixZipfS   = 1.5
	// mixStrata is the block size of the stratified key draws.
	mixStrata = 64
	// variantBudget offsets budget_ms above any solve time here, so no
	// budgeted solver could ever be cut short by it.
	variantBudget = 10_000
	// freshPair and freshExact start the unique budget_ms ranges that give
	// every pair and every exact job a key no earlier job used.
	freshPair  = 1_000_000
	freshExact = 2_000_000
	warmBudget = 1 // the warm-up key, never drawn by a job
)

func runServeMix(c *runCtx) (*outcome, error) {
	graphs, fileBytes, err := writeServingInputs(c, serveMixModels)
	if err != nil {
		return nil, err
	}
	refs, err := serveMixReferences(c, graphs)
	if err != nil {
		return nil, err
	}
	setup := func(traced bool) (*serverInst, time.Duration, error) {
		var decode time.Duration
		inst, err := startServer(c, traced, func(srv *server.Server) error {
			for _, sg := range graphs {
				start := time.Now()
				if _, err := srv.Registry().LoadFile(sg.name, sg.path, sg.directed, false); err != nil {
					return fmt.Errorf("loading %s: %w", sg.path, err)
				}
				dur := time.Since(start)
				decode += dur
				c.rec.add(0, "graph", "graph.decode", start, dur, map[string]any{"graph": sg.name})
			}
			return nil
		})
		return inst, decode, err
	}
	var warm []request
	for _, sg := range graphs {
		family, algo := "uds", "pkmc"
		if sg.directed {
			family, algo = "dds", "pwc"
		}
		warm = append(warm, solveRequest(family, sg.name, algo, map[string]any{"budget_ms": warmBudget}, nil, "warm"))
	}
	return runServing(c, servingCase{
		spec:      serveMixSpec,
		fileBytes: fileBytes,
		setup:     setup,
		warm:      warm,
		newGen:    func() func() job { return newMixGen(c.seed, refs).next },
		after:     func(*serverInst, []*reqRecord, *outcome) error { return nil },
		layers: func(o *outcome, _ []*reqRecord, _ *handlerTable) {
			o.fillLayers("live.")
		},
	})
}

// serveMixReferences solves every (graph, algorithm) pair the mix can ask
// for with the library, on the same files the server loads.
func serveMixReferences(c *runCtx, graphs []servedGraph) (map[string]answer, error) {
	refs := map[string]answer{}
	for _, sg := range graphs {
		lg, err := decodeFile(sg.path, sg.directed)
		if err != nil {
			return nil, err
		}
		var algos []string
		switch sg.abbr {
		case "PT":
			algos = append(mixUDSAlgos[:len(mixUDSAlgos):len(mixUDSAlgos)], string(dsd.AlgoExactPruned))
		case "EW":
			algos = mixUDSAlgos
		default:
			algos = []string{string(dsd.AlgoPWC)}
		}
		for _, algo := range algos {
			a, err := lg.solve(dsd.Algo(algo), c.nproc, nil)
			if err != nil {
				return nil, fmt.Errorf("reference %s/%s: %w", sg.name, algo, err)
			}
			refs[sg.name+"/"+algo] = a.sorted()
		}
	}
	return refs, nil
}

// mixGen deals serve-mix jobs deterministically from the seed. A Zipf
// rank maps to its key by striding first through the graphs and then
// through the (algorithm, omit_vertices) combinations, so every graph and
// every combination is equally hot and the seed moves the draw sequence,
// not the cost of the hot set. Pairs and exact jobs rotate through the
// samples in turn.
type mixGen struct {
	r              *rng
	deck           *deck
	zUDS, zPWC     *zipf
	uUDS, uPWC     *stratified
	refs           map[string]answer
	n, pairs, exas int
}

func newMixGen(seed int64, refs map[string]answer) *mixGen {
	return &mixGen{
		r:    newRNG(seed, streamJobs),
		deck: newDeck(mixDeck),
		zUDS: newZipf(mixUDSKeys, mixZipfS),
		zPWC: newZipf(mixPWCKeys, mixZipfS),
		uUDS: newStratified(mixStrata),
		uPWC: newStratified(mixStrata),
		refs: refs,
	}
}

// solve returns a solve request on one graph with its response check.
func (g *mixGen) solve(graph, algo string, opts map[string]any, vertices bool, class string) request {
	ref, what := g.refs[graph+"/"+algo], "serve-mix "+graph+"/"+algo
	if algo == string(dsd.AlgoPWC) {
		return solveRequest("dds", graph, algo, opts, ddsCheck(ref, what, vertices), class)
	}
	return solveRequest("uds", graph, algo, opts, udsCheck(ref, what, vertices), class)
}

func (g *mixGen) next() job {
	i := g.n
	g.n++
	switch g.deck.deal(g.r) {
	case mixUDS:
		k := g.zUDS.rank(g.uUDS.next(g.r))
		graph := sampleName([]string{"pt", "ew"}[k%2], (k/2)%servingSamples)
		k /= 2 * servingSamples
		algo := mixUDSAlgos[k%len(mixUDSAlgos)]
		k /= len(mixUDSAlgos)
		omit := k%2 == 1
		opts := map[string]any{"workers": 1, "budget_ms": variantBudget + k/2, "omit_vertices": omit}
		return job{reqs: []request{g.solve(graph, algo, opts, !omit, "uds")}}
	case mixPair:
		graph := sampleName("ew", g.pairs%servingSamples)
		g.pairs++
		opts := map[string]any{"workers": 1, "budget_ms": freshPair + i, "omit_vertices": true}
		r := g.solve(graph, "pkmc", opts, false, "pair")
		return job{reqs: []request{r, r}}
	case mixPWC:
		k := g.zPWC.rank(g.uPWC.next(g.r))
		graph := sampleName("am", k%servingSamples)
		k /= servingSamples
		omit := k%2 == 1
		opts := map[string]any{"workers": 1, "budget_ms": variantBudget + k/2, "omit_vertices": omit}
		return job{reqs: []request{g.solve(graph, string(dsd.AlgoPWC), opts, !omit, "pwc")}}
	default:
		graph := sampleName("pt", g.exas%servingSamples)
		g.exas++
		opts := map[string]any{"workers": 1, "budget_ms": freshExact + i}
		return job{reqs: []request{g.solve(graph, string(dsd.AlgoExactPruned), opts, true, "exact")}}
	}
}

// getRequest is a GET on one graph with a response check.
func getRequest(class, graph, path string, check func(*reqRecord, []byte) string) request {
	return request{class: class, graph: graph, method: http.MethodGet, path: path, check: check}
}
