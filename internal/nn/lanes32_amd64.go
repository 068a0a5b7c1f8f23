//go:build amd64 && !purego

package nn

// The f32 serving kernels on amd64: each wrapper runs its AVX body
// (lanes32_amd64.s) when laneAVX says the CPU and OS have AVX, and its
// portable Go twin otherwise.

// matVecBlocks runs matVecBlocksAVX, or matVecBlocksGo without AVX.
func matVecBlocks(dst, w, b, x Vec32, r4 int) {
	if laneAVX {
		matVecBlocksAVX(dst, w, b, x, r4)
		return
	}
	matVecBlocksGo(dst, w, b, x, r4)
}

// matVecBlocksAVX is matVecBlocksGo on YMM registers
// (lanes32_amd64.s): per block of eight rows, an even-column and an
// odd-column accumulator start at +0 and take VMULPS then VADDPS per
// column against the broadcast x[c]; the rows go 32 at a time while
// they last, then eight at a time, then the last four on XMM.
//
//go:noescape
func matVecBlocksAVX(dst, w, b, x Vec32, r4 int)

// gateBlocks runs gateBlocksAVX, or gateUnits without AVX.
func gateBlocks(h, c, pre Vec32, h4 int) {
	if laneAVX {
		gateBlocksAVX(h, c, pre, h4)
		return
	}
	gateUnits(h, c, pre, 0, h4)
}

// gateBlocksAVX is gateUnits on YMM registers (lanes32_amd64.s) over
// the first h4 units, eight per instruction and the last four on XMM:
// Sigmoid32's and Tanh32's operations in their order — the clamp as
// VMINPS/VMAXPS with x as the second source, so a NaN passes through
// as Tanh32's comparisons let it, the odd numerator and the even
// denominator by Horner's rule, VDIVPS, then 0.5 + 0.5·t for σ —
// written back over those units of pre, then the cell update.
//
//go:noescape
func gateBlocksAVX(h, c, pre Vec32, h4 int)

// reluBlocks runs reluBlocksAVX over x's whole blocks of eight and
// returns the elements it left: all of x without AVX.
func reluBlocks(x Vec32) Vec32 {
	if !laneAVX {
		return x
	}
	n := len(x) &^ 7
	if n > 0 {
		reluBlocksAVX(x[:n])
	}
	return x[n:]
}

// reluBlocksAVX is relu32Go on YMM registers (lanes32_amd64.s): VMAXPS
// with +0 as the first source, which keeps −0 and NaN as relu32Go's
// comparison does. len(x) must be a multiple of eight.
//
//go:noescape
func reluBlocksAVX(x Vec32)
