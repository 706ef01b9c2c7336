// Golden input for the registry analyzer: a stale HotPaths() registry
// in a package whose kernels have all been unmarked or moved away.
package hotpathsstale

func solve() int { return 0 }

func HotPaths() []string { // want "registry in a package with no //dsd:hotpath kernels"
	return []string{"solve"}
}
