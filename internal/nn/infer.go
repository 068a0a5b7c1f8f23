package nn

// Forward-only float64 inference for the dense stack — the DQN's action
// scoring and bootstrap target (internal/rl). Results are bit-identical
// to Forward (Linear.Forward computes its output through InferInto, and
// the parity tests in infer_test.go enforce `==`), but no backward
// closures are built and outputs live in caller-owned buffers or in an
// Arena, so a warm evaluation allocates nothing. The W-D estimator does
// not serve from here: its forward-only path is the float32 mirror
// (infer32.go, kernels32.go).

// InferInto applies the layer forward-only, writing the output into dst
// (length OutDim). dst must not alias x. This is the package's one f64
// matvec loop: Forward calls it too, and LSTM.Forward for its gate
// pre-activations. Rows go four at a time so four
// independent add chains are in flight (a single chain is bound by the
// add latency, and that tight loop's speed swung 25% with where the
// linker happened to place it); each row still accumulates bias first,
// then columns left to right, so blocking never changes a result.
func (l *Linear) InferInto(dst Vec, x Vec) {
	out, in := l.W.Rows, l.W.Cols
	w, b := l.W.Val, l.B.Val
	n := len(x)
	r := 0
	for ; r+4 <= out; r += 4 {
		r0 := w[r*in:][:n]
		r1 := w[(r+1)*in:][:n]
		r2 := w[(r+2)*in:][:n]
		r3 := w[(r+3)*in:][:n]
		s0, s1, s2, s3 := b[r], b[r+1], b[r+2], b[r+3]
		for c, xv := range x {
			s0 += r0[c] * xv
			s1 += r1[c] * xv
			s2 += r2[c] * xv
			s3 += r3[c] * xv
		}
		dst[r], dst[r+1], dst[r+2], dst[r+3] = s0, s1, s2, s3
	}
	for ; r < out; r++ {
		row := w[r*in:][:n]
		sum := b[r]
		for c, xv := range x {
			sum += row[c] * xv
		}
		dst[r] = sum
	}
}

// Infer applies the layer forward-only into an arena-backed vector.
func (l *Linear) Infer(x Vec, a *Arena) Vec {
	dst := a.Vec(l.W.Rows)
	l.InferInto(dst, x)
	return dst
}

// ReLUInto writes max(0, x) elementwise into dst; dst may alias x.
func ReLUInto(dst, x Vec) {
	for i, v := range x {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// Infer applies all layers forward-only with ReLU between them. The
// activations are applied in place on each layer's arena output.
func (m *MLP) Infer(x Vec, a *Arena) Vec {
	cur := x
	for i, l := range m.Layers {
		y := l.Infer(cur, a)
		if i < len(m.Layers)-1 || m.FinalActivation {
			ReLUInto(y, y)
		}
		cur = y
	}
	return cur
}
