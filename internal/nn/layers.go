package nn

import "math/rand"

// Linear is a fully connected layer: y = Wx + b.
type Linear struct {
	W *Param // [out x in]
	B *Param // [1 x out]
}

// NewLinear allocates a Glorot-initialized dense layer.
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	return &Linear{
		W: NewParam(name+".W", out, in).InitXavier(rng),
		B: NewParam(name+".b", 1, out),
	}
}

// Params implements Module.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// ShareWeights returns a replica sharing weight storage with private
// gradient buffers (see Param.GradView).
func (l *Linear) ShareWeights() *Linear {
	return &Linear{W: l.W.GradView(), B: l.B.GradView()}
}

// InDim returns the input dimension.
func (l *Linear) InDim() int { return l.W.Cols }

// OutDim returns the output dimension.
func (l *Linear) OutDim() int { return l.W.Rows }

// Forward applies the layer and returns the backward closure. The output
// is computed by InferInto, so the two are bit-identical by construction.
func (l *Linear) Forward(x Vec) (Vec, Backward) {
	out := l.W.Rows
	y := zeros(out)
	l.InferInto(y, x)
	back := func(dy Vec) Vec {
		dx := zeros(len(x))
		for r := 0; r < out; r++ {
			g := dy[r]
			if g == 0 { //lint:allow floateq exact-zero sparsity fast path in backprop
				continue
			}
			row := l.W.Row(r)
			grow := l.W.GradRow(r)
			for c, xv := range x {
				grow[c] += g * xv
				dx[c] += g * row[c]
			}
			l.B.Grad[r] += g
		}
		return dx
	}
	return y, back
}

// ReLU applies max(0, x) elementwise.
func ReLU(x Vec) (Vec, Backward) {
	y := zeros(len(x))
	for i, v := range x {
		if v > 0 {
			y[i] = v
		}
	}
	back := func(dy Vec) Vec {
		dx := zeros(len(x))
		for i := range dy {
			if x[i] > 0 {
				dx[i] = dy[i]
			}
		}
		return dx
	}
	return y, back
}

// Embedding maps integer ids to dense rows of a learned matrix.
type Embedding struct {
	W *Param // [vocab x dim]
}

// NewEmbedding allocates an embedding table.
func NewEmbedding(name string, vocab, dim int, rng *rand.Rand) *Embedding {
	return &Embedding{W: NewParam(name, vocab, dim).InitXavier(rng)}
}

// Params implements Module.
func (e *Embedding) Params() []*Param { return []*Param{e.W} }

// ShareWeights returns a replica sharing weight storage with private
// gradient buffers.
func (e *Embedding) ShareWeights() *Embedding {
	return &Embedding{W: e.W.GradView()}
}

// Dim returns the embedding dimension.
func (e *Embedding) Dim() int { return e.W.Cols }

// Forward looks up id and returns a copy of its row, carved from a
// (nil: the heap). Unknown ids clamp to row 0 (the reserved "unknown"
// slot).
func (e *Embedding) Forward(id int, a *Arena) (Vec, Backward) {
	if id < 0 || id >= e.W.Rows {
		id = 0
	}
	y := a.Vec(e.W.Cols)
	copy(y, e.W.Row(id))
	back := func(dy Vec) Vec {
		addInto(e.W.GradRow(id), dy)
		return nil // discrete input: no gradient flows further
	}
	return y, back
}

// AvgPool averages a non-empty list of equal-length vectors (the paper's
// average pooling for schema encoding and ablations). The result is
// carved from a (nil: the heap).
func AvgPool(xs []Vec, a *Arena) (Vec, Backward) {
	n := len(xs)
	dim := len(xs[0])
	y := a.Vec(dim)
	for _, x := range xs {
		addInto(y, x)
	}
	inv := 1 / float64(n)
	for i := range y {
		y[i] *= inv
	}
	back := func(dy Vec) Vec {
		// Returns the (shared) per-input gradient; all inputs receive
		// the same dy/n. Callers distribute it.
		dx := zeros(dim)
		for i := range dy {
			dx[i] = dy[i] * inv
		}
		return dx
	}
	return y, back
}

// MLP is a stack of Linear+activation layers, used by the DQN (four fully
// connected layers with ReLU).
type MLP struct {
	Layers []*Linear
	// FinalActivation applies ReLU after the last layer when true.
	FinalActivation bool
}

// NewMLP builds a dense stack with the given layer widths, e.g.
// dims = [in, 16, 64, 16, 1].
func NewMLP(name string, dims []int, rng *rand.Rand) *MLP {
	m := &MLP{}
	for i := 0; i+1 < len(dims); i++ {
		m.Layers = append(m.Layers, NewLinear(nameIdx(name, i), dims[i], dims[i+1], rng))
	}
	return m
}

func nameIdx(name string, i int) string {
	return name + "." + string(rune('0'+i))
}

// ShareWeights returns a replica sharing weight storage with private
// gradient buffers.
func (m *MLP) ShareWeights() *MLP {
	cp := &MLP{FinalActivation: m.FinalActivation}
	for _, l := range m.Layers {
		cp.Layers = append(cp.Layers, l.ShareWeights())
	}
	return cp
}

// Params implements Module.
func (m *MLP) Params() []*Param {
	var out []*Param
	for _, l := range m.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// Forward applies all layers with ReLU between them.
func (m *MLP) Forward(x Vec) (Vec, Backward) {
	var backs []Backward
	cur := x
	for i, l := range m.Layers {
		y, lb := l.Forward(cur)
		backs = append(backs, lb)
		cur = y
		if i < len(m.Layers)-1 || m.FinalActivation {
			a, ab := ReLU(cur)
			backs = append(backs, ab)
			cur = a
		}
	}
	back := func(dy Vec) Vec {
		d := dy
		for i := len(backs) - 1; i >= 0; i-- {
			d = backs[i](d)
		}
		return d
	}
	return cur, back
}
