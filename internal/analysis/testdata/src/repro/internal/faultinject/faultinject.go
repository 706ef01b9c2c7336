// Golden input for the registry analyzer's probe-site registry. This
// stub is type-checked AS repro/internal/faultinject with a deliberately
// broken registry: a Sites() table that misses a registered constant,
// lists a constant twice and lists a value no constant registers.
package faultinject

// The registered probe sites, with seeded defects.
const (
	SiteOne = "one"
	SiteTwo = "two" // want "Sites\\(\\) is missing SiteTwo"
	// SiteDup repeats SiteOne's value. Values are not the analyzer's to
	// check: TestSitesRegistryDistinct rejects this at run time.
	SiteDup = "one"
)

// Sites returns the registry table: it misses SiteTwo, doubles SiteOne
// and smuggles in a value no constant registers.
func Sites() []string {
	return []string{
		SiteOne,
		SiteDup,
		"rogue", // want "not a registered Site\\* constant"
		SiteOne, // want "SiteOne listed twice in Sites"
	}
}

// Hit mimics the real probe entry point.
func Hit(site string) error { return nil }

// Fire mimics the real panic-escalating probe entry point; forwarding
// its own parameter to Hit is plumbing, not a probe site.
func Fire(site string) {
	_ = Hit(site)
	_ = Hit("raw") // want "probe name \"raw\" is not a registered faultinject.Site\\* constant"
}
