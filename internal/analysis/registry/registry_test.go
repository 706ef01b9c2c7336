package registry_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/registry"
)

// TestGoldenCallSites checks the probe and expvar use-site rules against
// a consumer package importing the registry stubs.
func TestGoldenCallSites(t *testing.T) {
	analysistest.Run(t, registry.Analyzer, "registry")
}

// TestGoldenFaultinject checks the Sites() registry against a stub
// type-checked as the faultinject package itself.
func TestGoldenFaultinject(t *testing.T) {
	analysistest.Run(t, registry.Analyzer, "repro/internal/faultinject")
}

// TestGoldenServer checks the Codes() registry and the apiError code
// sites against a stub type-checked as the server package, which also
// declares Metric* constants without a MetricNames() registry.
func TestGoldenServer(t *testing.T) {
	analysistest.Run(t, registry.Analyzer, "repro/internal/server")
}

// TestGoldenMetrics checks the MetricNames() registry and expvar
// registrar names against a stub type-checked as the live package.
func TestGoldenMetrics(t *testing.T) {
	analysistest.Run(t, registry.Analyzer, "repro/internal/live")
}

func TestGoldenHotPaths(t *testing.T) {
	analysistest.Run(t, registry.Analyzer, "hotpaths")
}

func TestGoldenNoRegistry(t *testing.T) {
	analysistest.Run(t, registry.Analyzer, "hotpathsnoreg")
}

func TestGoldenStaleRegistry(t *testing.T) {
	analysistest.Run(t, registry.Analyzer, "hotpathsstale")
}
