package nn

// The batched f64 forward's kernel: one dense layer over many inputs at
// once, laid out feature-major and sample-minor so that each input is a
// lane. x is [cols × lanes], y is [len(b) × lanes], w is the layer's
// row-major [len(b) × cols] weight. Lane j of row r runs exactly the
// chain InferInto runs for that row — the bias, then w[r,c]·x[c] added
// column by column, left to right — so every lane is bit-identical to a
// single-vector forward. amd64 runs it in SSE2 assembly (lanes64_amd64.s,
// MULPD then ADDPD: never a fused multiply-add, which rounds once instead
// of twice); other GOARCHes, and the amd64 parity tests, run
// denseLanesGo.

// laneWidth is the kernel's block of lanes: callers pad the input count
// up to a multiple of it with zero columns and discard those lanes.
const laneWidth = 8

// padLanes rounds n up to a whole number of kernel blocks.
func padLanes(n int) int { return (n + laneWidth - 1) &^ (laneWidth - 1) }

// relu64 is ReLU's max(0, v): +0 for -0 and for NaN.
func relu64(v float64) float64 {
	if v > 0 {
		return v
	}
	return 0
}

// denseLanesGo is the portable kernel, with the assembly's loop shape:
// one block of eight lanes at a time, every row of the block, eight
// accumulators down the columns. It keeps InferInto's `s += w*x`
// statements, so a compiler that fuses multiply-add (arm64) fuses here
// exactly as it does there. lanes must be a multiple of laneWidth.
func denseLanesGo(y, x, w, b Vec, cols, lanes int, relu bool) {
	for j := 0; j < lanes; j += laneWidth {
		for r, bias := range b {
			wr := w[r*cols:][:cols]
			s0, s1, s2, s3, s4, s5, s6, s7 := bias, bias, bias, bias, bias, bias, bias, bias
			for c, wv := range wr {
				xc := x[c*lanes+j:][:laneWidth]
				s0 += wv * xc[0]
				s1 += wv * xc[1]
				s2 += wv * xc[2]
				s3 += wv * xc[3]
				s4 += wv * xc[4]
				s5 += wv * xc[5]
				s6 += wv * xc[6]
				s7 += wv * xc[7]
			}
			if relu {
				s0, s1, s2, s3 = relu64(s0), relu64(s1), relu64(s2), relu64(s3)
				s4, s5, s6, s7 = relu64(s4), relu64(s5), relu64(s6), relu64(s7)
			}
			yr := y[r*lanes+j:][:laneWidth]
			yr[0], yr[1], yr[2], yr[3] = s0, s1, s2, s3
			yr[4], yr[5], yr[6], yr[7] = s4, s5, s6, s7
		}
	}
}
