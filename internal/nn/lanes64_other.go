//go:build !amd64

package nn

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
