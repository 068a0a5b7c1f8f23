package nn

import (
	"math"
	"math/bits"

	"autoview/internal/obs"
)

// The batched f64 forward's kernel: one dense layer over many inputs at
// once, laid out feature-major and sample-minor so that each input is a
// lane. x is [cols × lanes], y is [len(b) × lanes], w is the layer's
// row-major [len(b) × cols] weight. Lane j of row r runs exactly the
// chain InferInto runs for that row — the bias, then w[r,c]·x[c] added
// column by column, left to right — so every lane is bit-identical to a
// single-vector forward. On amd64 with AVX it runs in assembly on YMM
// registers (lanes64_amd64.s, VMULPD then VADDPD: never a fused
// multiply-add, which rounds once instead of twice), chosen by one
// CPUID + XGETBV check per process; other GOARCHes, amd64 hosts without
// AVX, builds tagged purego, and the parity tests run denseLanesGo. The
// gauge nn.lanes.avx says which ran.
//
// Dead ReLU blocks are skipped exactly. Each block of eight lanes
// carries two masks: live[blk] names the input columns holding any
// nonzero bit there (the rest are all +0), and the kernel writes
// rows[blk] naming its own output rows that do. A layer fed live masks
// adds only the named columns' terms, still in ascending column order;
// a skipped term is w·(+0), which, for a finite w, changes nothing but
// the sign of a zero sum, and the layer's ReLU turns either zero into
// +0. So MLP.InferBatch passes live masks only to a layer with ReLU and
// finite weights, whose input came from a kernel that wrote them; the
// first layer and the un-ReLU'd last one run dense.
//
// The LSTM backward's two products run on the same packed doubles
// (mulAddLanes below: accLanes, in AVX where denseLanes is, accLanesGo
// elsewhere), each element's chain starting from the value it holds.

var obsLanesAVX = obs.Default.Gauge("nn.lanes.avx", "1 when the f64 lane kernels and the f32 serving kernels run in AVX, 0 when the portable twins do")

func init() {
	if laneAVX {
		obsLanesAVX.Set(1)
	}
}

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
// accumulators down the columns — all of them, or with live non-nil the
// set bits of live[blk], lowest first (cols ≤ 64). With rows non-nil
// (len(b) ≤ 64) it sets bit r of rows[blk] iff row r's eight outputs in
// block blk hold a nonzero bit. It keeps InferInto's `s += w*x`
// statements, so a compiler that fuses multiply-add (arm64) fuses here
// exactly as it does there. lanes must be a multiple of laneWidth.
func denseLanesGo(y, x, w, b Vec, live, rows []uint64, cols, lanes int, relu bool) {
	for j := 0; j < lanes; j += laneWidth {
		blk := j / laneWidth
		var lw, out uint64
		if live != nil {
			lw = live[blk]
		}
		for r, bias := range b {
			wr := w[r*cols:][:cols]
			s0, s1, s2, s3, s4, s5, s6, s7 := bias, bias, bias, bias, bias, bias, bias, bias
			// The dense walk takes the columns 64 at a time, the masked
			// one its block's word; both walk set bits.
			for c0 := 0; c0 < cols; c0 += 64 {
				m := ^uint64(0) >> max(0, 64-(cols-c0))
				if live != nil {
					m = lw
				}
				for ; m != 0; m &= m - 1 {
					c := c0 + bits.TrailingZeros64(m)
					wv := wr[c]
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
			}
			if relu {
				s0, s1, s2, s3 = relu64(s0), relu64(s1), relu64(s2), relu64(s3)
				s4, s5, s6, s7 = relu64(s4), relu64(s5), relu64(s6), relu64(s7)
			}
			yr := y[r*lanes+j:][:laneWidth]
			yr[0], yr[1], yr[2], yr[3] = s0, s1, s2, s3
			yr[4], yr[5], yr[6], yr[7] = s4, s5, s6, s7
			or := math.Float64bits(s0) | math.Float64bits(s1) | math.Float64bits(s2) | math.Float64bits(s3) |
				math.Float64bits(s4) | math.Float64bits(s5) | math.Float64bits(s6) | math.Float64bits(s7)
			out |= (or | -or) >> 63 << (r & 63)
		}
		if rows != nil {
			rows[blk] = out
		}
	}
}

// allFiniteGo is the portable allFinite: whether no element of w is
// ±Inf or NaN — the condition for a skipped column's term w·(+0) to be
// ±0 (∞·0 is NaN).
func allFiniteGo(w Vec) bool {
	for _, v := range w {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return false
		}
	}
	return true
}

// mulAddLanes adds w·x onto y, the LSTM backward's two products: x is
// [cols × ld] and y [rows × ld], both row-major with row stride ld, and w
// is [rows × cols] with rows = len(w)/cols. Each element y[r,j] takes its
// terms w[r,c]·x[c,j] one at a time, c ascending, onto the value it
// holds — the chain `y[r,j] += w[r,c]*x[c,j]` looped over c builds — so
// the blocks of eight lanes (accLanes) and the scalar columns past the
// last whole block give the same bits.
func mulAddLanes(y, x, w Vec, cols, ld int) {
	rows := len(w) / cols
	if len(y) < rows*ld || len(x) < cols*ld {
		panic("nn: mulAddLanes operands shorter than their shapes")
	}
	n8 := ld &^ (laneWidth - 1)
	if n8 > 0 {
		accLanes(y, x, w[:rows*cols], cols, ld, n8)
	}
	for j := n8; j < ld; j++ {
		for r := 0; r < rows; r++ {
			s := y[r*ld+j]
			for c, wv := range w[r*cols:][:cols] {
				s += wv * x[c*ld+j]
			}
			y[r*ld+j] = s
		}
	}
}

// accLanesGo is the portable kernel of mulAddLanes over its first lanes
// columns (a multiple of laneWidth), with the assembly's loop shape: one
// block of eight lanes at a time, every row of the block, eight
// accumulators loaded from y and carried down the columns.
func accLanesGo(y, x, w Vec, cols, ld, lanes int) {
	rows := len(w) / cols
	for j := 0; j < lanes; j += laneWidth {
		for r := 0; r < rows; r++ {
			wr := w[r*cols:][:cols]
			yr := y[r*ld+j:][:laneWidth]
			s0, s1, s2, s3, s4, s5, s6, s7 := yr[0], yr[1], yr[2], yr[3], yr[4], yr[5], yr[6], yr[7]
			for c, wv := range wr {
				xc := x[c*ld+j:][:laneWidth]
				s0 += wv * xc[0]
				s1 += wv * xc[1]
				s2 += wv * xc[2]
				s3 += wv * xc[3]
				s4 += wv * xc[4]
				s5 += wv * xc[5]
				s6 += wv * xc[6]
				s7 += wv * xc[7]
			}
			yr[0], yr[1], yr[2], yr[3] = s0, s1, s2, s3
			yr[4], yr[5], yr[6], yr[7] = s4, s5, s6, s7
		}
	}
}
