//go:build !amd64

package nn

// matVecBlocks runs the portable kernel where there is no assembly one.
func matVecBlocks(dst, w, b, x Vec32, r4 int) {
	matVecBlocksGo(dst, w, b, x, r4)
}

// gateBlocks runs the portable kernel where there is no assembly one.
func gateBlocks(h, c, pre Vec32, h4 int) {
	gateUnits(h, c, pre, 0, h4)
}
