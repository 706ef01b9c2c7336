package dds

// HotPaths lists this package's //dsd:hotpath kernels by declaration
// name. The registry analyzer proves the list matches the marked
// functions exactly, and hotpath_test.go drives every entry under
// testing.AllocsPerRun to corroborate the static zero-alloc claim
// dynamically.
func HotPaths() []string {
	return []string{
		"wState.peelLevel",
		"wState.peelBlock",
	}
}
