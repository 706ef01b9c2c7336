// Golden input for the registry analyzer's use-site rules. The
// faultinject, server and live imports resolve to the testdata stubs;
// the stubs' own registry defects are exercised by their own golden
// tests, not this one.
package registry

import (
	"expvar"

	"repro/internal/faultinject"
	"repro/internal/live"
	"repro/internal/server"
)

// localSite matches a registered value but is declared in the wrong
// package: arming code grepping the registry will never find it.
const localSite = "one"

func compliant() error {
	expvar.NewInt(live.MetricHits)
	expvar.NewMap(server.MetricMutations)
	faultinject.Fire(faultinject.SiteOne)
	return faultinject.Hit(faultinject.SiteTwo)
}

func violations(dynamic string) error {
	faultinject.Fire("raw.literal")                          // want "not a registered faultinject.Site\\* constant"
	faultinject.Fire(localSite)                              // want "not a registered faultinject.Site\\* constant"
	if err := faultinject.Hit("graph.io.txet"); err != nil { // want "not a registered faultinject.Site\\* constant"
		return err
	}
	expvar.NewInt("raw_name") // want "expvar.NewInt name must be a registered Metric. constant"
	name := live.MetricHits
	expvar.NewMap(name)             // want "expvar.NewMap name must be a registered Metric. constant"
	return faultinject.Hit(dynamic) // want "compile-time string constant"
}
