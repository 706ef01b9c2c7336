// Golden input for the registry analyzer, type-checked AS
// repro/internal/live: the metric-name registry with seeded structural
// defects, and expvar registrar sites.
package live

import "expvar"

const (
	MetricHits    = "hits_total"
	MetricLatency = "latency_ms_sum"
	MetricStray   = "stray_series" // want "MetricStray is not listed in the MetricNames"
	// MetricDup, MetricCamel and MetricTrailing carry bad values, which
	// TestMetricNameRegistry rejects at run time.
	MetricDup      = "hits_total"
	MetricCamel    = "CamelSeries"
	MetricTrailing = "bad_"
)

func MetricNames() []string {
	return []string{
		MetricHits,
		MetricLatency,
		MetricDup,
		MetricCamel,
		MetricTrailing,
		MetricHits,   // want "MetricHits listed twice in MetricNames"
		"raw_string", // want "entry is not a registered Metric"
	}
}

func publish() {
	expvar.NewInt(MetricHits)
	expvar.NewFloat("latency") // want "expvar.NewFloat name must be a registered Metric. constant"
}
