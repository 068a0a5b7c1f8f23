package nn

import (
	"math"
	"math/rand"
)

// LSTMCell implements the standard LSTM recurrence (Hochreiter &
// Schmidhuber 1997, the paper's reference [16]):
//
//	i = σ(Wi·[x,h] + bi)   f = σ(Wf·[x,h] + bf)
//	g = tanh(Wg·[x,h] + bg) o = σ(Wo·[x,h] + bo)
//	c' = f⊙c + i⊙g          h' = o⊙tanh(c')
type LSTMCell struct {
	// W holds the four gate matrices stacked [4*hidden x (in+hidden)].
	W *Param
	// B holds the four gate biases stacked [1 x 4*hidden]. The forget
	// gate bias is initialized to 1, the usual trick for gradient flow.
	B      *Param
	In     int
	Hidden int
}

// NewLSTMCell allocates an initialized cell.
func NewLSTMCell(name string, in, hidden int, rng *rand.Rand) *LSTMCell {
	c := &LSTMCell{
		W:      NewParam(name+".W", 4*hidden, in+hidden).InitXavier(rng),
		B:      NewParam(name+".b", 1, 4*hidden),
		In:     in,
		Hidden: hidden,
	}
	for j := 0; j < hidden; j++ {
		c.B.Val[hidden+j] = 1 // forget-gate slot
	}
	return c
}

// Params implements Module.
func (c *LSTMCell) Params() []*Param { return []*Param{c.W, c.B} }

// ShareWeights returns a replica sharing weight storage with private
// gradient buffers.
func (c *LSTMCell) ShareWeights() *LSTMCell {
	return &LSTMCell{W: c.W.GradView(), B: c.B.GradView(), In: c.In, Hidden: c.Hidden}
}

// StepBackward propagates gradients of one step: given dh' and dc', it
// returns dx, dh and dc.
type StepBackward func(dh, dc Vec) (dx, dhPrev, dcPrev Vec)

// Step runs one time step.
func (c *LSTMCell) Step(x, h, cPrev Vec) (hNext, cNext Vec, back StepBackward) {
	H := c.Hidden
	xh := Concat(x, h)
	// Pre-activations for the four gates: order i, f, g, o. W and B are
	// stacked like one Linear layer's, so they go through its matvec.
	pre := zeros(4 * H)
	gates := Linear{W: c.W, B: c.B}
	gates.InferInto(pre, xh)
	i, f, g, o := zeros(H), zeros(H), zeros(H), zeros(H)
	for j := 0; j < H; j++ {
		i[j] = sigmoid(pre[j])
		f[j] = sigmoid(pre[H+j])
		g[j] = math.Tanh(pre[2*H+j])
		o[j] = sigmoid(pre[3*H+j])
	}
	cNext = zeros(H)
	tanhC := zeros(H)
	hNext = zeros(H)
	for j := 0; j < H; j++ {
		cNext[j] = f[j]*cPrev[j] + i[j]*g[j]
		tanhC[j] = math.Tanh(cNext[j])
		hNext[j] = o[j] * tanhC[j]
	}
	back = func(dh, dc Vec) (Vec, Vec, Vec) {
		dPre := zeros(4 * H)
		dcTotal := zeros(H)
		for j := 0; j < H; j++ {
			dcj := dc[j] + dh[j]*o[j]*(1-tanhC[j]*tanhC[j])
			dcTotal[j] = dcj
			do := dh[j] * tanhC[j]
			di := dcj * g[j]
			df := dcj * cPrev[j]
			dg := dcj * i[j]
			dPre[j] = di * i[j] * (1 - i[j])
			dPre[H+j] = df * f[j] * (1 - f[j])
			dPre[2*H+j] = dg * (1 - g[j]*g[j])
			dPre[3*H+j] = do * o[j] * (1 - o[j])
		}
		dxh := zeros(len(xh))
		for r := 0; r < 4*H; r++ {
			gr := dPre[r]
			if gr == 0 { //lint:allow floateq exact-zero sparsity fast path in backprop
				continue
			}
			row := c.W.Row(r)
			grow := c.W.GradRow(r)
			for k, v := range xh {
				grow[k] += gr * v
				dxh[k] += gr * row[k]
			}
			c.B.Grad[r] += gr
		}
		dx := append(Vec(nil), dxh[:c.In]...)
		dhPrev := append(Vec(nil), dxh[c.In:]...)
		dcPrev := zeros(H)
		for j := 0; j < H; j++ {
			dcPrev[j] = dcTotal[j] * f[j]
		}
		return dx, dhPrev, dcPrev
	}
	return hNext, cNext, back
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// LSTM runs a cell over a sequence and exposes the final hidden state —
// the fixed-length encoding the paper's LSTM1/LSTM2 produce.
type LSTM struct {
	Cell *LSTMCell
}

// NewLSTM allocates an LSTM encoder.
func NewLSTM(name string, in, hidden int, rng *rand.Rand) *LSTM {
	return &LSTM{Cell: NewLSTMCell(name, in, hidden, rng)}
}

// Params implements Module.
func (l *LSTM) Params() []*Param { return l.Cell.Params() }

// ShareWeights returns a replica sharing weight storage with private
// gradient buffers.
func (l *LSTM) ShareWeights() *LSTM {
	return &LSTM{Cell: l.Cell.ShareWeights()}
}

// Hidden returns the encoder's output dimension.
func (l *LSTM) Hidden() int { return l.Cell.Hidden }

// Forward encodes the sequence into the final hidden state. The backward
// closure returns per-step input gradients.
func (l *LSTM) Forward(xs []Vec) (Vec, func(dh Vec) []Vec) {
	H := l.Cell.Hidden
	h, c := zeros(H), zeros(H)
	backs := make([]StepBackward, len(xs))
	for t, x := range xs {
		h, c, backs[t] = l.Cell.Step(x, h, c)
	}
	back := func(dh Vec) []Vec {
		dxs := make([]Vec, len(xs))
		dc := zeros(H)
		d := dh
		for t := len(xs) - 1; t >= 0; t-- {
			var dx Vec
			dx, d, dc = backs[t](d, dc)
			dxs[t] = dx
		}
		return dxs
	}
	return h, back
}
