// Golden input for the registry analyzer: marked kernels with no
// HotPaths() registry at all.
package hotpathsnoreg

//dsd:hotpath
func kern() {} // want "package has //dsd:hotpath kernels but no HotPaths"

//dsd:hotpath
func kern2() {}
