package server

import (
	"encoding/json"
	"testing"

	"repro/internal/live"
)

// isSnake reports whether s matches ^[a-z][a-z0-9_]*$ without a trailing
// or doubled underscore: the shape of every registered error code and
// metric name.
func isSnake(s string) bool {
	if s == "" || s[0] < 'a' || s[0] > 'z' {
		return false
	}
	prevUnderscore := false
	for _, r := range s {
		switch {
		case r == '_':
			if prevUnderscore {
				return false
			}
			prevUnderscore = true
		case (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9'):
			prevUnderscore = false
		default:
			return false
		}
	}
	return !prevUnderscore
}

// TestMetricNameRegistry is the only check of the metric names' values:
// the server-owned and live-owned names are pairwise distinct across
// both registries and every name is snake_case. The registry analyzer
// checks structure only (every expvar registration names a registered
// Metric* constant, and each MetricNames() lists every constant exactly
// once), so this test covers every constant. It also checks that the
// snapshot's wire keys are exactly the union of the two registries
// (minus MetricRoot, which names the published document, not a series
// in it).
func TestMetricNameRegistry(t *testing.T) {
	seen := map[string]string{}
	for _, n := range MetricNames() {
		if !isSnake(n) {
			t.Errorf("server metric %q is not snake_case", n)
		}
		if prev, dup := seen[n]; dup {
			t.Errorf("metric %q registered twice (%s and server)", n, prev)
		}
		seen[n] = "server"
	}
	for _, n := range live.MetricNames() {
		if !isSnake(n) {
			t.Errorf("live metric %q is not snake_case", n)
		}
		if prev, dup := seen[n]; dup {
			t.Errorf("metric %q registered twice (%s and live)", n, prev)
		}
		seen[n] = "live"
	}

	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(NewMetrics().snapshot()), &doc); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	for key := range doc {
		if _, ok := seen[key]; !ok {
			t.Errorf("snapshot key %q is not in any metric-name registry", key)
		}
	}
	for name, owner := range seen {
		if name == MetricRoot {
			continue
		}
		if _, ok := doc[name]; !ok {
			t.Errorf("registered %s metric %q missing from the snapshot", owner, name)
		}
	}
}
