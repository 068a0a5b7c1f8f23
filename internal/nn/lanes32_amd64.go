//go:build amd64 && !purego

package nn

// matVecBlocks is matVecBlocksGo in SSE (lanes32_amd64.s): per block of
// four rows, an even-column and an odd-column XMM accumulator start at
// +0 and take MULPS then ADDPS per column against the broadcast x[c];
// the rows go sixteen at a time while they last, then four at a time.
// SSE is the amd64 baseline, so there is no CPU check.
//
//go:noescape
func matVecBlocks(dst, w, b, x Vec32, r4 int)

// gateBlocks is gateUnits in SSE (lanes32_amd64.s) over the first h4
// units, four per instruction: Sigmoid32's and Tanh32's operations in
// their order — the clamp as MINPS/MAXPS with x as the source operand,
// so a NaN passes through as Tanh32's comparisons let it, the odd
// numerator and the even denominator by Horner's rule, DIVPS, then
// 0.5 + 0.5·t for σ — written back over those units of pre, then the
// cell update.
//
//go:noescape
func gateBlocks(h, c, pre Vec32, h4 int)
