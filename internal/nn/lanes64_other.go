//go:build !amd64

package nn

// denseLanes runs the portable kernel where there is no assembly one.
func denseLanes(y, x, w, b Vec, cols, lanes int, relu bool) {
	denseLanesGo(y, x, w, b, cols, lanes, relu)
}

// accLanes runs the portable kernel where there is no assembly one.
func accLanes(y, x, w Vec, cols, ld, lanes int) {
	accLanesGo(y, x, w, cols, ld, lanes)
}
