package uds

// HotPaths lists this package's //dsd:hotpath kernels by declaration
// name. The registry analyzer proves the list matches the marked
// functions exactly, and hotpath_test.go drives every entry under
// testing.AllocsPerRun to corroborate the static zero-alloc claim
// dynamically.
func HotPaths() []string {
	return []string{
		"gradScratch.recomputeLoads",
		"gradScratch.gatherLoad",
		"gradScratch.fistaIterate",
		"gradScratch.gradStep",
		"gradScratch.momStep",
		"gradScratch.fwIterate",
		"gradScratch.fwStep",
		"gradScratch.densestPrefix",
		"gradScratch.fractionalPeel",
	}
}
