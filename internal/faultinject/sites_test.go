package faultinject

import "testing"

// TestSitesRegistryDistinct is the only check of the probe names'
// values: every registered name is non-empty and unique, so arming one
// site can never affect another. The registry analyzer checks structure
// only (every Hit/Fire site names a registered Site* constant, and
// Sites() lists every constant exactly once), so this test covers every
// constant.
func TestSitesRegistryDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, site := range Sites() {
		if site == "" {
			t.Fatal("registry contains an empty probe name")
		}
		if seen[site] {
			t.Fatalf("probe name %q registered twice", site)
		}
		seen[site] = true
	}
	if len(seen) == 0 {
		t.Fatal("registry is empty")
	}
}

// TestSitesArmable checks every registered site round-trips through the
// arm/hit/disarm machinery under its registered name.
func TestSitesArmable(t *testing.T) {
	t.Cleanup(Reset)
	for _, site := range Sites() {
		Arm(site, Fault{Mode: ModeDelay})
		if err := Hit(site); err != nil {
			t.Fatalf("armed delay fault at %s returned error: %v", site, err)
		}
		if Hits(site) != 1 {
			t.Fatalf("site %s: hits = %d, want 1", site, Hits(site))
		}
		Disarm(site)
	}
}
