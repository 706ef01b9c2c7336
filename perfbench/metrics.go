package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef is one reported metric: its name and unit exactly as
// BENCHMARK.json declares them (a test keeps the two in step).
type metricDef struct {
	name, unit string
}

// e2eMetrics are what a user of the system sees. Every workload reports
// all of them from an untraced run; "op" is the workload's unit of work —
// one pass over the sampled graphs for the library workloads, one HTTP
// request for the serving workloads.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},       // decode, registry load, server start, warm-up (median of setupReps)
	{"resident_mb", "MB"},  // live heap after setup and a forced GC
	{"ops_per_s", "1/s"},   // closed-loop throughput
	{"op_ms_p50", "ms"},    // op latency (open loop: from its due time)
	{"op_ms_p90", "ms"},    // op latency tail
	{"slo_share", "share"}, // ops within the workload's latency limit; failures miss
}

// layerMetrics come from the traced run. A layer the workload never
// reaches reports 0 (for example server.* on the library workloads).
var layerMetrics = []metricDef{
	{"graph.decode_ms", "ms"},
	{"graph.decode_mb_per_s", "MB/s"},
	{"core.decomp_ms", "ms"},
	{"core.density_ms", "ms"},
	{"core.sweeps", "count"},
	{"core.peak_candidates", "count"},
	{"parallel.items_per_edge", "count"},
	{"parallel.chunks_per_pass", "count"},
	{"parallel.speedup", "x"},
	{"dsd.self_ms", "ms"},
	{"dds.wstar_ms", "ms"},
	{"dds.cnpair_ms", "ms"},
	{"dds.extract_ms", "ms"},
	{"dds.levels", "count"},
	{"dds.warm_start_arc_share", "share"},
	{"server.hit_ms_p50", "ms"},
	{"server.miss_ms_p50", "ms"},
	{"server.resp_bytes_mean", "B"},
	{"server.cache_hit_share", "share"},
	{"server.coalesced_share", "share"},
	{"server.solver_share", "share"},
	{"http.overhead_ms_p50", "ms"},
	{"live.mutate_ms_p50", "ms"},
	{"live.mutate_ms_p90", "ms"},
	{"live.touched_per_edge", "count"},
	{"live.recompute_share", "share"},
	{"live.compactions", "count"},
	{"live.densest_ms_p50", "ms"},
	{"live.snapshot_solve_ms_p50", "ms"},
	{"loadgen.lag_ms_p99", "ms"},
	{"trace.overhead_share", "share"},
}

// valueUnit is one metric on the result line.
type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// spec is the part of BENCHMARK.json the program reads back: the metric
// declarations (to check its own catalog) and the regression bounds (for
// -compare).
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark spec: %w", err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// checkCatalog reports the first difference between the program's metric
// catalog and the spec's declarations.
func (s *spec) checkCatalog() error {
	type nu struct{ name, unit string }
	diff := func(kind string, want []metricDef, got []nu) error {
		if len(want) != len(got) {
			return fmt.Errorf("%s: program has %d metrics, spec declares %d", kind, len(want), len(got))
		}
		for i, m := range want {
			if got[i].name != m.name || got[i].unit != m.unit {
				return fmt.Errorf("%s[%d]: program has %s (%s), spec declares %s (%s)",
					kind, i, m.name, m.unit, got[i].name, got[i].unit)
			}
		}
		return nil
	}
	var e2e, layer []nu
	for _, m := range s.EndToEnd {
		e2e = append(e2e, nu{m.Name, m.Unit})
	}
	for _, m := range s.PerLayer {
		layer = append(layer, nu{m.Name, m.Unit})
	}
	if err := diff("end_to_end", e2eMetrics, e2e); err != nil {
		return err
	}
	return diff("per_layer", layerMetrics, layer)
}
