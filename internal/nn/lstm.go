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

// Forward encodes the sequence into the final hidden state (zeros for an
// empty sequence). The backward closure returns per-step input
// gradients. The returned vectors are views into the pass's own
// storage: callers read them, never write.
//
// The whole sequence's saved activations live in one slab and the
// backward's scratch in another, both carved from a (nil: the heap), so
// a pass costs a constant number of allocations whatever the sequence
// length (pinned by TestLSTMForwardBackwardAllocsLengthIndependent) and,
// on a warm arena, no slab at all.
func (l *LSTM) Forward(xs []Vec, a *Arena) (Vec, func(dh Vec) []Vec) {
	c := l.Cell
	H, in, T := c.Hidden, c.In, len(xs)
	xhLen := in + H
	// Slab: the zero initial cell state; the steps' [x,h_prev], latest
	// step first (the row order the dW kernel takes them in); then per
	// step [i f g o | c | tanh c | h].
	stride := 7 * H
	xhs, steps := H, H+T*xhLen
	slab := a.Vec(steps + T*stride)
	gates := Linear{W: c.W, B: c.B}
	hPrev, cPrev := slab[:H], slab[:H] // both zero; h_0 is only read
	for t, x := range xs {
		xh := slab[xhs+(T-1-t)*xhLen:][:xhLen]
		step := slab[steps+t*stride:][:stride]
		g4, cNext, tanhC, h := step[:4*H], step[4*H:5*H], step[5*H:6*H], step[6*H:]
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
		dxs := make([]Vec, T)
		// Scratch: per step d[x,h_prev]; every step's dPre, gate row by
		// gate row with the latest step first (the dW kernel's weights);
		// this step's dPre; dc.
		G := 4 * H
		bslab := a.Vec(T*xhLen + G*T + G + H)
		dPreT := bslab[T*xhLen:][:G*T]
		dPre, dc := bslab[T*xhLen+G*T:][:G], bslab[T*xhLen+G*T+G:][:H]
		for t := T - 1; t >= 0; t-- {
			step := slab[steps+t*stride:][:stride]
			g4, tanhC := step[:4*H], step[5*H:6*H]
			gi, gf, gg, go_ := g4[:H], g4[H:2*H], g4[2*H:3*H], g4[3*H:4*H]
			cPrev := slab[:H]
			if t > 0 {
				cPrev = slab[steps+(t-1)*stride+4*H:][:H]
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
			col := T - 1 - t
			for r, gr := range dPre {
				dPreT[r*T+col] = gr
				c.B.Grad[r] += gr
			}
			// d[x,h_prev] = Wᵀ·dPre, each element's terms in gate-row
			// order from +0.
			dxh := bslab[t*xhLen:][:xhLen]
			mulAddLanes(dxh, c.W.Val, dPre, G, xhLen)
			dxs[t] = dxh[:in:in]
			dh = dxh[in:]
		}
		// dW += dPreᵀ·[x,h_prev] over the steps: each element takes its
		// terms latest step first onto the gradient it holds.
		if T > 0 {
			mulAddLanes(c.W.Grad, slab[xhs:steps], dPreT, T, xhLen)
		}
		return dxs
	}
	return hPrev, back
}
