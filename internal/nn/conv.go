package nn

import (
	"math"
	"math/rand"
)

// MatBackward propagates matrix-shaped gradients.
type MatBackward func(dy []Vec) []Vec

const bnEps = 1e-5

// BatchNorm normalizes a matrix over all its elements with a learned
// scale and shift: y = γ·(x-μ)/√(σ²+ε) + β. It is the single-channel
// BatchNorm2d of the paper's String Encoding model, computed with
// per-sample (instance) statistics.
type BatchNorm struct {
	Gamma *Param
	Beta  *Param
}

// NewBatchNorm allocates a unit-scale, zero-shift normalizer.
func NewBatchNorm(name string) *BatchNorm {
	bn := &BatchNorm{
		Gamma: NewParam(name+".gamma", 1, 1),
		Beta:  NewParam(name+".beta", 1, 1),
	}
	bn.Gamma.Val[0] = 1
	return bn
}

// Params implements Module.
func (bn *BatchNorm) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// matStats accumulates the instance statistics of a T×D matrix in the
// repo's canonical reduction order: a single accumulator walking rows
// outer, columns inner (row-major), mean fully reduced before the
// variance pass starts. Forward (through this helper) and the float32
// mirror (BatchNorm32, by construction) share this order, so the
// f32-vs-f64 tolerance bounds pinned in the tests do not depend on any
// kernel block size. Documented in PERFORMANCE.md ("Accumulation
// order").
func matStats(m []Vec) (mu, variance float64) {
	n := 0
	for t := range m {
		n += len(m[t])
		for _, v := range m[t] {
			mu += v
		}
	}
	mu /= float64(n)
	for t := range m {
		for _, v := range m[t] {
			dv := v - mu
			variance += dv * dv
		}
	}
	variance /= float64(n)
	return mu, variance
}

// ShareWeights returns a replica sharing weight storage with private
// gradient buffers.
func (bn *BatchNorm) ShareWeights() *BatchNorm {
	return &BatchNorm{Gamma: bn.Gamma.GradView(), Beta: bn.Beta.GradView()}
}

// Forward normalizes the matrix, preserving its shape. Activations and
// gradients are carved from a (nil: the heap).
func (bn *BatchNorm) Forward(m []Vec, a *Arena) ([]Vec, MatBackward) {
	T := len(m)
	if T == 0 {
		return nil, func(dy []Vec) []Vec { return nil }
	}
	D := len(m[0])
	n := float64(T * D)
	mu, variance := matStats(m)
	std := math.Sqrt(variance + bnEps)
	gamma, beta := bn.Gamma.Val[0], bn.Beta.Val[0]

	xhat, out := a.mat(T, D), a.mat(T, D)
	for t := 0; t < T; t++ {
		for d := 0; d < D; d++ {
			xh := (m[t][d] - mu) / std
			xhat[t][d] = xh
			out[t][d] = gamma*xh + beta
		}
	}

	back := func(dy []Vec) []Vec {
		var dGamma, dBeta, sumDxhat, sumDxhatXhat float64
		dXhat := a.mat(T, D)
		for t := 0; t < T; t++ {
			for d := 0; d < D; d++ {
				dGamma += dy[t][d] * xhat[t][d]
				dBeta += dy[t][d]
				dx := dy[t][d] * gamma
				dXhat[t][d] = dx
				sumDxhat += dx
				sumDxhatXhat += dx * xhat[t][d]
			}
		}
		bn.Gamma.Grad[0] += dGamma
		bn.Beta.Grad[0] += dBeta
		dm := a.mat(T, D)
		for t := 0; t < T; t++ {
			for d := 0; d < D; d++ {
				dm[t][d] = (dXhat[t][d] - sumDxhat/n - xhat[t][d]*sumDxhatXhat/n) / std
			}
		}
		return dm
	}
	return out, back
}

// ConvBlock is one convolution block of the paper's String Encoding model:
// Conv2d (3×1 kernel, single channel, zero padding) → BatchNorm2d → ReLU.
// Inputs are matrices represented as slices of equal-length row vectors
// (rows = characters, columns = embedding dimensions); the convolution
// slides along the row (character) axis.
type ConvBlock struct {
	// K holds the 3 kernel weights plus bias [1 x 4].
	K *Param
	// BN is the single-channel batch normalization.
	BN *BatchNorm
}

// NewConvBlock allocates an initialized block.
func NewConvBlock(name string, rng *rand.Rand) *ConvBlock {
	return &ConvBlock{
		K:  NewParam(name+".k", 1, 4).InitXavier(rng),
		BN: NewBatchNorm(name),
	}
}

// Params implements Module.
func (b *ConvBlock) Params() []*Param { return []*Param{b.K, b.BN.Gamma, b.BN.Beta} }

// ShareWeights returns a replica sharing weight storage with private
// gradient buffers.
func (b *ConvBlock) ShareWeights() *ConvBlock {
	return &ConvBlock{K: b.K.GradView(), BN: b.BN.ShareWeights()}
}

// Forward applies conv → norm → relu, preserving the matrix shape.
// Activations and gradients are carved from a (nil: the heap).
func (b *ConvBlock) Forward(m []Vec, a *Arena) ([]Vec, MatBackward) {
	T := len(m)
	if T == 0 {
		return nil, func(dy []Vec) []Vec { return nil }
	}
	D := len(m[0])
	w0, w1, w2, bias := b.K.Val[0], b.K.Val[1], b.K.Val[2], b.K.Val[3]

	// Convolution with zero padding along the character axis.
	conv := a.mat(T, D)
	for t := 0; t < T; t++ {
		for d := 0; d < D; d++ {
			sum := bias + w1*m[t][d]
			if t > 0 {
				sum += w0 * m[t-1][d]
			}
			if t < T-1 {
				sum += w2 * m[t+1][d]
			}
			conv[t][d] = sum
		}
	}

	norm, bnBack := b.BN.Forward(conv, a)
	out := a.mat(T, D)
	for t := 0; t < T; t++ {
		for d := 0; d < D; d++ {
			if y := norm[t][d]; y > 0 {
				out[t][d] = y
			}
		}
	}

	back := func(dy []Vec) []Vec {
		// ReLU backward.
		dNorm := a.mat(T, D)
		for t := 0; t < T; t++ {
			for d := 0; d < D; d++ {
				if norm[t][d] > 0 {
					dNorm[t][d] = dy[t][d]
				}
			}
		}
		dConv := bnBack(dNorm)
		// Convolution backward.
		dm := a.mat(T, D)
		var dw0, dw1, dw2, dbias float64
		for t := 0; t < T; t++ {
			for d := 0; d < D; d++ {
				g := dConv[t][d]
				if g == 0 { //lint:allow floateq exact-zero sparsity fast path in backprop
					continue
				}
				dbias += g
				dw1 += g * m[t][d]
				dm[t][d] += g * w1
				if t > 0 {
					dw0 += g * m[t-1][d]
					dm[t-1][d] += g * w0
				}
				if t < T-1 {
					dw2 += g * m[t+1][d]
					dm[t+1][d] += g * w2
				}
			}
		}
		b.K.Grad[0] += dw0
		b.K.Grad[1] += dw1
		b.K.Grad[2] += dw2
		b.K.Grad[3] += dbias
		return dm
	}
	return out, back
}

// AvgPoolCols averages a matrix over its rows, producing one vector of the
// column dimension: Ds[i] = Avg(M'[:, i]) as in the String Encoding model.
// The result and the gradient are carved from a (nil: the heap).
func AvgPoolCols(m []Vec, a *Arena) (Vec, MatBackward) {
	T := len(m)
	if T == 0 {
		return nil, func(dy []Vec) []Vec { return nil }
	}
	D := len(m[0])
	y := a.Vec(D)
	for _, row := range m {
		addInto(y, row)
	}
	inv := 1 / float64(T)
	for i := range y {
		y[i] *= inv
	}
	back := func(dy []Vec) []Vec {
		d := dy[0]
		dm := a.mat(T, D)
		for t := 0; t < T; t++ {
			for i := range d {
				dm[t][i] = d[i] * inv
			}
		}
		return dm
	}
	return y, back
}

// ConvTape is one ConvBlock forward over a T×D matrix held flat
// (row-major), kept for BackwardTape: Forward's arithmetic, value for
// value, without its closures or row slices, every vector carved from
// an arena. Training runs it; a tape's backward may run any number of
// times, each with its own gradient.
type ConvTape struct {
	T, D      int
	m         Vec // the input
	xhat, out Vec // normalized conv output, and the block's output (after ReLU)
	std       float64
}

// ForwardTape is Forward on the flat T×D matrix m, recorded in t; the
// output is carved from a.
func (b *ConvBlock) ForwardTape(t *ConvTape, m Vec, T, D int, a *Arena) Vec {
	*t = ConvTape{T: T, D: D, m: m}
	n := T * D
	if n == 0 {
		return nil
	}
	w0, w1, w2, bias := b.K.Val[0], b.K.Val[1], b.K.Val[2], b.K.Val[3]
	conv := a.raw(n)
	for r := 0; r < T; r++ {
		for d := 0; d < D; d++ {
			sum := bias + w1*m[r*D+d]
			if r > 0 {
				sum += w0 * m[(r-1)*D+d]
			}
			if r < T-1 {
				sum += w2 * m[(r+1)*D+d]
			}
			conv[r*D+d] = sum
		}
	}
	// matStats' order: one accumulator, row-major, the mean first.
	var mu, variance float64
	for _, v := range conv {
		mu += v
	}
	mu /= float64(n)
	for _, v := range conv {
		dv := v - mu
		variance += dv * dv
	}
	variance /= float64(n)
	t.std = math.Sqrt(variance + bnEps)
	gamma, beta := b.BN.Gamma.Val[0], b.BN.Beta.Val[0]
	t.xhat, t.out = a.raw(n), a.raw(n)
	for i, v := range conv {
		xh := (v - mu) / t.std
		t.xhat[i] = xh
		var y float64
		if norm := gamma*xh + beta; norm > 0 {
			y = norm
		}
		t.out[i] = y
	}
	return t.out
}

// BackwardTape is Forward's backward for the tape t: it adds the
// block's parameter gradients and returns the input's gradient, carved
// from a.
func (b *ConvBlock) BackwardTape(t *ConvTape, dy Vec, a *Arena) Vec {
	T, D := t.T, t.D
	n := T * D
	if n == 0 {
		return nil
	}
	gamma := b.BN.Gamma.Val[0]
	fn := float64(n)
	// ReLU, then BatchNorm's backward.
	var dGamma, dBeta, sumDxhat, sumDxhatXhat float64
	dXhat := a.raw(n)
	for i, xh := range t.xhat {
		var g float64
		if t.out[i] > 0 {
			g = dy[i]
		}
		dGamma += g * xh
		dBeta += g
		dx := g * gamma
		dXhat[i] = dx
		sumDxhat += dx
		sumDxhatXhat += dx * xh
	}
	b.BN.Gamma.Grad[0] += dGamma
	b.BN.Beta.Grad[0] += dBeta
	dConv := dXhat // overwritten in place: element i reads only element i
	for i, xh := range t.xhat {
		dConv[i] = (dXhat[i] - sumDxhat/fn - xh*sumDxhatXhat/fn) / t.std
	}
	// The convolution's. Forward's backward skips a zero g; its terms
	// are then ±0 for finite weights and inputs, and each sum here starts
	// at +0, so it is never -0 and adding them changes nothing.
	w0, w1, w2 := b.K.Val[0], b.K.Val[1], b.K.Val[2]
	m, dm := t.m, a.Vec(n)
	var dw0, dw1, dw2, dbias float64
	for r := 0; r < T; r++ {
		for d := 0; d < D; d++ {
			g := dConv[r*D+d]
			dbias += g
			dw1 += g * m[r*D+d]
			dm[r*D+d] += g * w1
			if r > 0 {
				dw0 += g * m[(r-1)*D+d]
				dm[(r-1)*D+d] += g * w0
			}
			if r < T-1 {
				dw2 += g * m[(r+1)*D+d]
				dm[(r+1)*D+d] += g * w2
			}
		}
	}
	b.K.Grad[0] += dw0
	b.K.Grad[1] += dw1
	b.K.Grad[2] += dw2
	b.K.Grad[3] += dbias
	return dm
}
