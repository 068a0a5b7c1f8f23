//go:build !amd64 || purego

package nn

// laneAVX is false where there is no assembly kernel.
const laneAVX = false

// denseLanes runs the portable kernel where there is no assembly one.
func denseLanes(y, x, w, b Vec, live, rows []uint64, cols, lanes int, relu bool) {
	denseLanesGo(y, x, w, b, live, rows, cols, lanes, relu)
}

// allFinite runs the portable check where there is no assembly one.
func allFinite(w Vec) bool { return allFiniteGo(w) }

// accLanes runs the portable kernel where there is no assembly one.
func accLanes(y, x, w Vec, cols, ld, lanes int) {
	accLanesGo(y, x, w, cols, ld, lanes)
}

// foldLanes runs the portable kernel where there is no assembly one.
func foldLanes(y, x, w Vec, rows, cols, ld, lanes, rs, cs int) {
	foldLanesGo(y, x, w, rows, cols, ld, lanes, rs, cs)
}
