package nn

import "math"

// Float32 inference mirrors. Each *32 type is a forward-only replica of
// the corresponding float64 layer, materialized from the trained f64
// parameters (New*32) and backed by the kernels in kernels32.go. The
// mirrors exist only on the W-D serving path: training, persistence and
// the golden traces stay on the float64 layers bit-exactly, and a mirror
// is rebuilt (cheaply — it is a flat copy of the weights) whenever the
// underlying parameters change. Outputs agree with the tape Forward of
// the mirrored layer within the tolerance budgets pinned by the parity
// tests; see PERFORMANCE.md for the f64-train / f32-infer contract.

// Linear32 mirrors Linear: y = Wx + b over float32 with a row-major
// flat weight copy.
type Linear32 struct {
	W   Vec32 // [out × in] row-major
	B   Vec32 // [out]
	In  int
	Out int
}

// NewLinear32 materializes the mirror of a trained layer.
func NewLinear32(l *Linear) *Linear32 {
	m := &Linear32{
		W:   make(Vec32, len(l.W.Val)),
		B:   make(Vec32, len(l.B.Val)),
		In:  l.W.Cols,
		Out: l.W.Rows,
	}
	F32From(m.W, l.W.Val)
	F32From(m.B, l.B.Val)
	return m
}

// InferInto applies the layer into dst (length Out). x may be shorter
// than In when the logical input is zero-padded. dst must not alias x.
func (l *Linear32) InferInto(dst, x Vec32) {
	MatVec32(dst, l.W, l.Out, l.In, l.B, x)
}

// Infer applies the layer into an arena-backed vector.
func (l *Linear32) Infer(x Vec32, a *Arena) Vec32 {
	dst := a.Vec32(l.Out)
	l.InferInto(dst, x)
	return dst
}

// Embedding32 mirrors Embedding as a flat row-major float32 table.
type Embedding32 struct {
	W    Vec32 // [rows × cols]
	Rows int
	Cols int
}

// NewEmbedding32 materializes the mirror of a trained table.
func NewEmbedding32(e *Embedding) *Embedding32 {
	m := &Embedding32{W: make(Vec32, len(e.W.Val)), Rows: e.W.Rows, Cols: e.W.Cols}
	F32From(m.W, e.W.Val)
	return m
}

// Row returns the id's row (the mirror's storage — read-only for
// callers). Unknown ids clamp to row 0, matching Embedding.Forward.
func (e *Embedding32) Row(id int) Vec32 {
	if id < 0 || id >= e.Rows {
		id = 0
	}
	return e.W[id*e.Cols : id*e.Cols+e.Cols]
}

// LSTMCell32 mirrors LSTMCell with the gate matrix split into its input
// and recurrent halves: W [4H × (In+H)] becomes Wx [4H × In] and
// Wh [4H × H], both flat row-major. The split lets callers precompute
// the input half B + Wx·x_t per token — for vocabulary tokens once per
// mirror build (featenc folds the embedding lookup straight into gate
// pre-activations) — leaving only the recurrent Wh·h matvec on the
// sequential critical path.
type LSTMCell32 struct {
	Wx     Vec32 // [4H × In]
	Wh     Vec32 // [4H × H]
	B      Vec32 // [4H]
	In     int
	Hidden int
}

// NewLSTMCell32 materializes the mirror of a trained cell.
func NewLSTMCell32(c *LSTMCell) *LSTMCell32 {
	H := c.Hidden
	m := &LSTMCell32{
		Wx:     make(Vec32, 4*H*c.In),
		Wh:     make(Vec32, 4*H*H),
		B:      make(Vec32, 4*H),
		In:     c.In,
		Hidden: H,
	}
	for r := 0; r < 4*H; r++ {
		row := c.W.Row(r)
		F32From(m.Wx[r*c.In:r*c.In+c.In], row[:c.In])
		F32From(m.Wh[r*H:r*H+H], row[c.In:])
		m.B[r] = float32(c.B.Val[r])
	}
	return m
}

// PreX computes the input half of the gate pre-activations,
// dst = B + Wx·x (length 4H). x may be shorter than In when the token
// encoding is zero-padded.
func (c *LSTMCell32) PreX(dst, x Vec32) {
	MatVec32(dst, c.Wx, 4*c.Hidden, c.In, c.B, x)
}

// Step advances one time step given the precomputed input half preX
// (= B + Wx·x_t): it adds the recurrent half into pre (scratch, length
// 4H, overwritten; must not alias preX) and applies the gate
// nonlinearities, updating h and cst in place. Gate order is i, f, g, o
// as in the f64 cell.
func (c *LSTMCell32) Step(h, cst, pre, preX Vec32) {
	H := c.Hidden
	// preX rides MatVec32's bias slot: pre[r] = preX[r] + Wh[r]·h.
	MatVec32(pre, c.Wh, 4*H, H, preX, h)
	// Per-gate views of length H keep the gate loop free of bounds
	// checks (every index is provably < H).
	gi := pre[0*H:][:H]
	gf := pre[1*H:][:H]
	gg := pre[2*H:][:H]
	gout := pre[3*H:][:H]
	h = h[:H]
	cst = cst[:H]
	for j := 0; j < H; j++ {
		i := Sigmoid32(gi[j])
		f := Sigmoid32(gf[j])
		g := Tanh32(gg[j])
		o := Sigmoid32(gout[j])
		cj := f*cst[j] + i*g
		cst[j] = cj
		h[j] = o * Tanh32(cj)
	}
}

// BatchNorm32 mirrors BatchNorm over a flat row-major matrix. The
// statistics reduce in the canonical order (single accumulator,
// row-major — the same order matStats uses on the f64 side), so the
// f32-vs-f64 deviation stays within the pinned tolerance regardless of
// kernel blocking.
type BatchNorm32 struct {
	Gamma float32
	Beta  float32
}

// NewBatchNorm32 materializes the mirror of a trained normalizer.
func NewBatchNorm32(bn *BatchNorm) *BatchNorm32 {
	return &BatchNorm32{Gamma: float32(bn.Gamma.Val[0]), Beta: float32(bn.Beta.Val[0])}
}

// InferInPlace normalizes the flat matrix in place.
func (bn *BatchNorm32) InferInPlace(m Vec32) {
	if len(m) == 0 {
		return
	}
	var mu float32
	for _, v := range m {
		mu += v
	}
	mu /= float32(len(m))
	var variance float32
	for _, v := range m {
		dv := v - mu
		variance += dv * dv
	}
	variance /= float32(len(m))
	std := float32(math.Sqrt(float64(variance) + bnEps))
	for i, v := range m {
		m[i] = bn.Gamma*(v-mu)/std + bn.Beta
	}
}

// ConvBlock32 mirrors ConvBlock (3-tap conv → BatchNorm → ReLU) over
// flat row-major T×D matrices.
type ConvBlock32 struct {
	W0, W1, W2, Bias float32
	BN               *BatchNorm32
}

// NewConvBlock32 materializes the mirror of a trained block.
func NewConvBlock32(b *ConvBlock) *ConvBlock32 {
	return &ConvBlock32{
		W0:   float32(b.K.Val[0]),
		W1:   float32(b.K.Val[1]),
		W2:   float32(b.K.Val[2]),
		Bias: float32(b.K.Val[3]),
		BN:   NewBatchNorm32(b.BN),
	}
}

// Infer applies the block to a flat T×D matrix into an arena-backed
// matrix of the same shape.
func (b *ConvBlock32) Infer(m Vec32, T, D int, a *Arena) Vec32 {
	out := a.Vec32(T * D)
	for t := 0; t < T; t++ {
		src := m[t*D : t*D+D]
		dst := out[t*D : t*D+D]
		for d := 0; d < D; d++ {
			sum := b.Bias + b.W1*src[d]
			if t > 0 {
				sum += b.W0 * m[(t-1)*D+d]
			}
			if t < T-1 {
				sum += b.W2 * m[(t+1)*D+d]
			}
			dst[d] = sum
		}
	}
	b.BN.InferInPlace(out)
	ReLU32(out)
	return out
}

// AvgPoolRows32 averages the T rows of a flat T×D matrix into dst
// (length D): rows accumulate top to bottom, matching the f64
// AvgPoolCols order.
func AvgPoolRows32(dst Vec32, m Vec32, T, D int) {
	clear(dst)
	for t := 0; t < T; t++ {
		row := m[t*D : t*D+D]
		for d, v := range row {
			dst[d] += v
		}
	}
	inv := 1 / float32(T)
	for d := range dst {
		dst[d] *= inv
	}
}
