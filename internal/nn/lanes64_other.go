//go:build !amd64

package nn

// denseLanes runs the portable kernel where there is no assembly one.
func denseLanes(y, x, w, b Vec, cols, lanes int, relu bool) {
	denseLanesGo(y, x, w, b, cols, lanes, relu)
}
