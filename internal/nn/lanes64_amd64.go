//go:build amd64 && !purego

package nn

// laneAVX is whether this process runs the lane kernels in AVX — the
// f64 ones (lanes64_amd64.s) and the f32 serving ones
// (lanes32_amd64.s): cpuHasAVX, checked once. A CPU or OS without AVX
// runs the portable twins, which the parity tests hold bit-identical.
var laneAVX = cpuHasAVX()

// cpuHasAVX reports whether the CPU has AVX and the OS saves the YMM
// registers (CPUID, then XGETBV).
func cpuHasAVX() bool

// denseLanes runs denseLanesAVX, or denseLanesGo without AVX.
func denseLanes(y, x, w, b Vec, live, rows []uint64, cols, lanes int, relu bool) {
	if laneAVX {
		denseLanesAVX(y, x, w, b, live, rows, cols, lanes, relu)
		return
	}
	denseLanesGo(y, x, w, b, live, rows, cols, lanes, relu)
}

// denseLanesAVX is denseLanesGo on YMM registers: per block of eight
// lanes, rows four at a time and then one at a time, each row's eight
// accumulators in two registers that start at the broadcast bias and
// take VMULPD then VADDPD per column — every column, or the set bits of
// the block's live word, found with BSFQ once per block and listed on
// the stack for all its rows. ReLU, when asked, is VMAXPD
// with +0 as the second source, which yields +0 for -0 and for NaN
// exactly as relu64 does.
//
//go:noescape
func denseLanesAVX(y, x, w, b Vec, live, rows []uint64, cols, lanes int, relu bool)

// allFinite is allFiniteGo in SSE2 (lanes64_amd64.s): SUBPD of each
// pair of weights from itself, ORed into two accumulators, which end all
// zero bits exactly when every difference was +0. SSE2 is the amd64
// baseline; it runs once per InferBatch, so it needs no AVX body.
//
//go:noescape
func allFinite(w Vec) bool

// accLanes runs accLanesAVX, or accLanesGo without AVX.
func accLanes(y, x, w Vec, cols, ld, lanes int) {
	if laneAVX {
		accLanesAVX(y, x, w, cols, ld, lanes)
		return
	}
	accLanesGo(y, x, w, cols, ld, lanes)
}

// accLanesAVX is accLanesGo on YMM registers: per block of eight lanes,
// rows four at a time and then one at a time, each row's eight
// accumulators in two registers loaded from y that take VMULPD then
// VADDPD per column.
//
//go:noescape
func accLanesAVX(y, x, w Vec, cols, ld, lanes int)
