package server

import "testing"

// TestErrorCodeRegistry is the only check of the registered wire
// strings' values: they are non-empty, pairwise distinct and snake_case.
// The registry analyzer in internal/analysis checks structure only —
// every apiError site names a registered Code* constant, and Codes()
// lists every constant exactly once — so this test covers every
// constant.
func TestErrorCodeRegistry(t *testing.T) {
	codes := Codes()
	if len(codes) == 0 {
		t.Fatal("Codes() returned an empty registry")
	}
	seen := make(map[string]bool, len(codes))
	for _, c := range codes {
		if !isSnake(c) {
			t.Errorf("code %q is not snake_case", c)
		}
		if seen[c] {
			t.Errorf("code %q registered twice", c)
		}
		seen[c] = true
	}
}
