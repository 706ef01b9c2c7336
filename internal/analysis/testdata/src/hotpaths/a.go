// Golden input for the registry analyzer's HotPaths() registry: one
// correct entry, one duplicate, one ghost, one non-literal, and one
// marked kernel the registry misses.
package hotpaths

//dsd:hotpath
func listed() {}

//dsd:hotpath
func missing() {} // want "hot-path kernel missing is not listed in HotPaths"

type engine struct{}

//dsd:hotpath
func (e *engine) step() {}

const ghostName = "ghost"

func HotPaths() []string {
	return []string{
		"listed",
		"engine.step",
		"engine.step", // want "engine.step listed twice in HotPaths"
		"ghost",       // want "not a //dsd:hotpath-marked function"
		ghostName,     // want "must be a literal string"
	}
}
