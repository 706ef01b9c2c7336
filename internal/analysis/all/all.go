// Package all registers the full dsdlint analyzer suite in one place, so
// the driver and the end-to-end tests cannot disagree about what "all
// analyzers" means.
package all

import (
	"repro/internal/analysis"
	"repro/internal/analysis/atomicmix"
	"repro/internal/analysis/ctxpoll"
	"repro/internal/analysis/gorolife"
	"repro/internal/analysis/hotalloc"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/registry"
	"repro/internal/analysis/sharedwrite"
	"repro/internal/analysis/tracenil"
)

// Analyzers returns the complete suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		atomicmix.Analyzer,
		ctxpoll.Analyzer,
		gorolife.Analyzer,
		hotalloc.Analyzer,
		lockorder.Analyzer,
		registry.Analyzer,
		sharedwrite.Analyzer,
		tracenil.Analyzer,
	}
}
