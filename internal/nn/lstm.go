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

// Forward encodes the sequence into the final hidden state (zeros for an
// empty sequence). The backward closure returns per-step input
// gradients. The returned vectors are views into the pass's own
// storage: callers read them, never write.
//
// The whole sequence's saved activations live in one slab and the
// backward's scratch in another, so a pass costs a constant number of
// allocations whatever the sequence length (pinned by
// TestLSTMForwardBackwardAllocsLengthIndependent).
func (l *LSTM) Forward(xs []Vec) (Vec, func(dh Vec) []Vec) {
	c := l.Cell
	H, in := c.Hidden, c.In
	xhLen := in + H
	// Slab: the zero initial cell state, then per step
	// [x,h_prev | i f g o | c | tanh c | h].
	stride := xhLen + 7*H
	slab := zeros(H + len(xs)*stride)
	gates := Linear{W: c.W, B: c.B}
	hPrev, cPrev := slab[:H], slab[:H] // both zero; h_0 is only read
	for t, x := range xs {
		step := slab[H+t*stride:][:stride]
		xh, g4 := step[:xhLen], step[xhLen:xhLen+4*H]
		cNext, tanhC, h := step[xhLen+4*H:][:H], step[xhLen+5*H:][:H], step[xhLen+6*H:][:H]
		copy(xh, x)
		copy(xh[in:], hPrev)
		// Pre-activations for the four gates, order i, f, g, o. W and B
		// are stacked like one Linear layer's, so they go through its
		// matvec; the activations then overwrite them in place.
		gates.InferInto(g4, xh)
		gi, gf, gg, go_ := g4[:H], g4[H:2*H], g4[2*H:3*H], g4[3*H:4*H]
		for j := range gi {
			gi[j] = sigmoid(gi[j])
			gf[j] = sigmoid(gf[j])
			gg[j] = math.Tanh(gg[j])
			go_[j] = sigmoid(go_[j])
		}
		for j := range cNext {
			cNext[j] = gf[j]*cPrev[j] + gi[j]*gg[j]
			tanhC[j] = math.Tanh(cNext[j])
			h[j] = go_[j] * tanhC[j]
		}
		hPrev, cPrev = h, cNext
	}
	back := func(dh Vec) []Vec {
		dxs := make([]Vec, len(xs))
		// Slab: per step d[x,h_prev], then dPre and dc, reused by
		// every step.
		bslab := zeros(len(xs)*xhLen + 5*H)
		dPre, dc := bslab[len(xs)*xhLen:][:4*H], bslab[len(xs)*xhLen+4*H:]
		for t := len(xs) - 1; t >= 0; t-- {
			step := slab[H+t*stride:][:stride]
			xh, g4 := step[:xhLen], step[xhLen:xhLen+4*H]
			tanhC := step[xhLen+5*H:][:H]
			gi, gf, gg, go_ := g4[:H], g4[H:2*H], g4[2*H:3*H], g4[3*H:4*H]
			cPrev := slab[:H]
			if t > 0 {
				cPrev = slab[H+(t-1)*stride+xhLen+4*H:][:H]
			}
			dhT := dh[:H]
			for j := range gi {
				i, f, g, o := gi[j], gf[j], gg[j], go_[j]
				dcj := dc[j] + dhT[j]*o*(1-tanhC[j]*tanhC[j])
				do := dhT[j] * tanhC[j]
				di := dcj * g
				df := dcj * cPrev[j]
				dg := dcj * i
				dPre[j] = di * i * (1 - i)
				dPre[H+j] = df * f * (1 - f)
				dPre[2*H+j] = dg * (1 - g*g)
				dPre[3*H+j] = do * o * (1 - o)
				dc[j] = dcj * f
			}
			// dW and d[x,h_prev] as two passes per gate row, each over
			// slices of one known length: every element still receives
			// its terms in row order, as the single loop did.
			dxh := bslab[t*xhLen:][:xhLen]
			for r, gr := range dPre {
				if gr == 0 { //lint:allow floateq exact-zero sparsity fast path in backprop
					continue
				}
				grow := c.W.GradRow(r)[:len(xh)]
				for k, v := range xh {
					grow[k] += gr * v
				}
				row := c.W.Row(r)[:len(dxh)]
				for k, w := range row {
					dxh[k] += gr * w
				}
				c.B.Grad[r] += gr
			}
			dxs[t] = dxh[:in:in]
			dh = dxh[in:]
		}
		return dxs
	}
	return hPrev, back
}
