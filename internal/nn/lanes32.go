package nn

// The f32 serving forward's kernels: a matrix-vector product over a
// column-major weight, with rows as lanes, and the LSTM gate
// nonlinearities over hidden units as lanes. Lane r of the product runs
// exactly dot32's chain for row r — an even-column and an odd-column
// accumulator, both from +0, taking w[c,r]·x[c] column pair by column
// pair, an odd last column on the even chain, then b[r] + (even + odd) —
// so it is bit-identical to the row-major MatVec32. Lane j of the gate
// kernel runs exactly the Go loop's operations for unit j. amd64 runs
// both four lanes per SSE instruction (lanes32_amd64.s, MULPS then
// ADDPS: never a fused multiply-add); other GOARCHes, and the amd64
// parity tests, run the Go twins matVecBlocksGo and gateUnits.

// matVecCols32 computes dst = b + W·x for a column-major W [cols × rows],
// rows = len(b): dst[r] = b[r] + Σc W[c·rows+r]·x[c] in dot32's order.
// Blocks of four rows run in matVecBlocks, the rows past the last whole
// block in matVecTail. x may be shorter than cols when the logical input
// is zero-padded (the unread columns contribute nothing); dst must not
// alias x.
func matVecCols32(dst, w, b, x Vec32) {
	rows := len(b)
	if len(dst) < rows || len(w) < len(x)*rows {
		panic("nn: matVecCols32 operands shorter than their shapes")
	}
	r4 := rows &^ 3
	if r4 > 0 {
		matVecBlocks(dst, w, b, x, r4)
	}
	matVecTail(dst, w, b, x, r4)
}

// matVecTail computes rows [from, len(b)) of matVecCols32 one at a time.
func matVecTail(dst, w, b, x Vec32, from int) {
	rows := len(b)
	for r := from; r < rows; r++ {
		var s0, s1 float32
		c := 0
		for ; c+2 <= len(x); c += 2 {
			s0 += w[c*rows+r] * x[c]
			s1 += w[(c+1)*rows+r] * x[c+1]
		}
		if c < len(x) {
			s0 += w[c*rows+r] * x[c]
		}
		dst[r] = b[r] + (s0 + s1)
	}
}

// matVecBlocksGo is the portable kernel of matVecCols32 over its first r4
// rows (a multiple of four), with the assembly's loop shape: one block
// of four rows at a time, an even and an odd accumulator per row carried
// down the columns. It keeps MatVec32's `s += w*x` statements, so a
// compiler that fuses multiply-add (arm64) fuses here exactly as there.
func matVecBlocksGo(dst, w, b, x Vec32, r4 int) {
	rows := len(b)
	n := len(x)
	for r := 0; r < r4; r += 4 {
		var e0, e1, e2, e3, o0, o1, o2, o3 float32
		c := 0
		for ; c+2 <= n; c += 2 {
			we := w[c*rows+r:][:4]
			wo := w[(c+1)*rows+r:][:4]
			x0, x1 := x[c], x[c+1]
			e0 += we[0] * x0
			o0 += wo[0] * x1
			e1 += we[1] * x0
			o1 += wo[1] * x1
			e2 += we[2] * x0
			o2 += wo[2] * x1
			e3 += we[3] * x0
			o3 += wo[3] * x1
		}
		if c < n {
			we := w[c*rows+r:][:4]
			x0 := x[c]
			e0 += we[0] * x0
			e1 += we[1] * x0
			e2 += we[2] * x0
			e3 += we[3] * x0
		}
		d := dst[r:][:4]
		bb := b[r:][:4]
		d[0] = bb[0] + (e0 + o0)
		d[1] = bb[1] + (e1 + o1)
		d[2] = bb[2] + (e2 + o2)
		d[3] = bb[3] + (e3 + o3)
	}
}

// lstmGates32 applies the LSTM gate nonlinearities to the pre-activations
// pre [4H] (gate order i, f, g, o) and advances the state: per unit j,
// c′ = σ(f)·c + σ(i)·tanh(g), h = σ(o)·tanh(c′), with H = len(h). Blocks
// of four units run in gateBlocks, which leaves the activated gates in
// pre (scratch), the units past the last whole block in gateUnits.
func lstmGates32(h, c, pre Vec32) {
	H := len(h)
	if len(c) < H || len(pre) < 4*H {
		panic("nn: lstmGates32 operands shorter than their shapes")
	}
	h4 := H &^ 3
	if h4 > 0 {
		gateBlocks(h, c, pre, h4)
	}
	gateUnits(h, c, pre, h4, H)
}

// gateUnits is lstmGates32 over units [from, to): the portable kernel
// and the tail of the assembly one.
func gateUnits(h, c, pre Vec32, from, to int) {
	H := len(h)
	// Views of the units [from, to) of h, c and each gate keep the loop
	// free of bounds checks.
	h = h[from:to]
	n := len(h)
	c = c[from:][:n]
	gi := pre[from:][:n]
	gf := pre[H+from:][:n]
	gg := pre[2*H+from:][:n]
	gout := pre[3*H+from:][:n]
	for j := range h {
		i := Sigmoid32(gi[j])
		f := Sigmoid32(gf[j])
		g := Tanh32(gg[j])
		o := Sigmoid32(gout[j])
		cj := f*c[j] + i*g
		c[j] = cj
		h[j] = o * Tanh32(cj)
	}
}
