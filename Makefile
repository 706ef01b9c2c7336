# Reproduction workflow for "Scalable Algorithms for Densest Subgraph
# Discovery" (ICDE 2023). Stdlib-only Go; no network needed.

GO ?= go

.PHONY: all build vet lint lint-json test perfbench-test race chaos cover fuzz fuzz-smoke bench bench-json docs-algorithms live-smoke repro figures datasets examples serve clean

# Packages with concurrency worth racing: the parallel runtime, the core
# kernels and both solver families, the fault injector, graph I/O, the
# live-mutation subsystem, and the HTTP service (whose chaos suite
# interleaves mutations with solves). The race target adds the root
# package, whose SolveUDS/SolveDDS dispatch every registered solver.
RACE_PKGS = ./internal/parallel ./internal/core ./internal/uds ./internal/dds \
            ./internal/faultinject ./internal/graph ./internal/live \
            ./internal/server

all: build vet lint test

build:
	$(GO) build ./...

# Default vet, then a second pass that names the analyzers this codebase
# leans on hardest — copylocks (mutexes embedded in copied structs),
# atomic (broken x = atomic.Add(&x) patterns) and loopclosure (captured
# loop variables) — explicitly, so a future change to vet's default set
# can never silently drop them.
vet:
	$(GO) vet ./...
	$(GO) vet -copylocks -atomic -loopclosure ./...

# The project-specific static-analysis suite: proves the parallel
# runtime's invariants (atomic captured writes, context polling, trace
# nil-safety, atomic/plain mixing), the serving tier's concurrency
# contracts (lock ordering, goroutine lifecycle), the name registries
# (probe sites, error codes, expvar names and HotPaths() list exactly
# their declared names, and use sites name a registered entry), and the
# hot-path allocation discipline (//dsd:hotpath kernels must not
# allocate). See DESIGN.md's "Static analysis" section and
# `go run ./cmd/dsdlint -list`.
lint:
	$(GO) run ./cmd/dsdlint ./...

# The same suite as a machine-readable report; CI turns the findings
# into GitHub annotations and uploads the report as an artifact. The
# target still fails (exit 1) on any finding, after writing the report.
lint-json:
	$(GO) run ./cmd/dsdlint -json ./... > dsdlint-report.json

test: vet
	$(GO) test ./...
	$(MAKE) race

# perfbench/ is a nested module the root `go test ./...` never compiles,
# yet it reads the server's wire types; vet and test it on its own so a
# wire change cannot break the benchmark unnoticed.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS) .

# The overload tier under the race detector, twice: request coalescing,
# per-tenant quotas, deadline degradation, snapshot/warm-restart, and the
# fault-injection chaos suite (armed Site* probes, leader panics, torn
# snapshot writes), plus PKMC's asynchronous in-place sweeps, whose
# workers read each other's writes mid-sweep, PWC's w-peel, whose blocks
# swap-remove arcs in the slots they own while reading the shared
# in-degrees, and live graphs, whose snapshot builders read the adjacency
# the single writer edits (under the graph's lock). -count=2 reruns every
# interleaving-sensitive test on a warmed scheduler, where a different
# goroutine order shakes out schedule-dependent bugs the first pass can
# miss.
chaos:
	$(GO) test -race -count=2 -run 'PKMC|KStar|WorkerCounts' ./internal/core .
	$(GO) test -race -count=2 -run 'PWC|WDecompose|WStar|ExactPruned' ./internal/dds
	$(GO) test -race -count=2 -run 'Randomized|TestWriter' ./internal/live
	$(GO) test -race -count=2 \
		-run 'TestChaos|TestCoalesce|TestQuota|TestDegrade|TestSnapshot|TestLivePublishMidFlight|TestLiveConcurrentMutateSolve|TestSolveDeadline|TestOverloaded|TestSolvePathEquivalence|TestMaintainedSolveRandomized' \
		./internal/server
	$(GO) test -race -count=2 \
		-run 'TestRunWarmRestart|TestParseQuotaSpec|TestParseArgsServingTier' \
		./cmd/dsdserver

cover:
	$(GO) test -cover ./...

fuzz:
	$(GO) test -fuzz FuzzReadEdgeList -fuzztime 30s ./internal/graph
	$(GO) test -fuzz 'FuzzReadBinary$$' -fuzztime 30s ./internal/graph
	$(GO) test -fuzz FuzzReadBinaryDirected -fuzztime 30s ./internal/graph
	$(GO) test -fuzz FuzzPKMC -fuzztime 30s ./internal/core
	$(GO) test -fuzz FuzzExactPruned -fuzztime 30s ./internal/uds
	$(GO) test -fuzz FuzzWStarSearch -fuzztime 30s ./internal/dds

# Quick CI-grade pass over every fuzz target: seeds plus a few seconds of
# mutation each, enough to catch reader regressions, a PKMC k*-core or
# floor that disagrees with BZ, an exact-pruned answer that differs from
# the oracles', and a w* search or PWC pair that
# differs from the naive peel and the brute-force core product, without a
# long soak.
fuzz-smoke:
	$(GO) test -fuzz FuzzReadEdgeList -fuzztime 5s ./internal/graph
	$(GO) test -fuzz 'FuzzReadBinary$$' -fuzztime 5s ./internal/graph
	$(GO) test -fuzz FuzzReadBinaryDirected -fuzztime 5s ./internal/graph
	$(GO) test -fuzz FuzzPKMC -fuzztime 5s ./internal/core
	$(GO) test -fuzz FuzzExactPruned -fuzztime 5s ./internal/uds
	$(GO) test -fuzz FuzzWStarSearch -fuzztime 5s ./internal/dds

# Every testing.B benchmark in the module, one iteration each: at the root,
# BenchmarkPaper (every case of internal/bench's experiment table, the same
# cases dsdbench runs) plus the ablations, and the per-package kernel
# benches. CI runs this so no benchmark rots unexecuted.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x ./...

# Machine-readable benchmark artifact: a versioned BENCH_<timestamp>.json
# with run metadata, measurement rows, and full PKMC/PWC solver traces
# (schema documented in DESIGN.md). Tiny scale so it finishes in seconds;
# raise -scale for a real measurement run. The accuracy experiment rides
# along so CI can assert the FISTA/FracPeel rows exist in the schema. The
# report gates nothing: TestWorkCounters pins the solvers' work in
# `go test`, and perfbench compares wall times between commits.
bench-json:
	$(GO) run ./cmd/dsdbench -json -exp datasets,live,accuracy -scale 0.01

# Regenerate docs/ALGORITHMS.md from the live solver registry. The intro
# prose is hand-written in cmd/dsddocs/main.go; the tables are rendered
# from the registered descriptors. CI regenerates and fails on git diff,
# so run this after registering, renaming, or re-grading any solver.
docs-algorithms:
	$(GO) run ./cmd/dsddocs

# End-to-end smoke of the live-graph serving path: load live over HTTP,
# mutate, and check the standing densest answer, the maintained k*-core
# solves and the snapshots against from-scratch solves and builds — the
# fastest proof the streaming subsystem still works.
live-smoke:
	$(GO) test -run 'TestLiveHTTPRoundTrip|TestMaintainedSolveRandomized|TestApplyEquivalenceRandomized' ./internal/server ./internal/live

# Regenerate every table and figure of the paper's evaluation as text
# tables (EXPERIMENTS.md documents the expected shapes).
repro:
	$(GO) run ./cmd/dsdbench -scale 0.1 -budget 10s

# The same figures as ASCII charts.
figures:
	$(GO) run ./cmd/dsdbench -exp exp1,exp5 -scale 0.1 -budget 10s -chart

# Materialize the twelve dataset scale models into ./data.
datasets:
	mkdir -p data
	$(GO) run ./cmd/dsdgen -all -scale 0.1 -dir data

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/community
	$(GO) run ./examples/fraud
	$(GO) run ./examples/webspam
	$(GO) run ./examples/streaming
	$(GO) run ./examples/serve

# Run the query service with the PT scale model preloaded (make datasets
# first); see the README's Serving section for the endpoints.
serve:
	$(GO) run ./cmd/dsdserver -addr :8080 -load pt=data/PT.txt

clean:
	rm -rf data BENCH_*.json dsdlint-report.json
