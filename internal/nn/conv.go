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

// Forward normalizes the matrix, preserving its shape.
func (bn *BatchNorm) Forward(m []Vec) ([]Vec, MatBackward) {
	T := len(m)
	if T == 0 {
		return nil, func(dy []Vec) []Vec { return nil }
	}
	D := len(m[0])
	n := float64(T * D)
	mu, variance := matStats(m)
	std := math.Sqrt(variance + bnEps)
	gamma, beta := bn.Gamma.Val[0], bn.Beta.Val[0]

	xhat := make([]Vec, T)
	out := make([]Vec, T)
	for t := 0; t < T; t++ {
		xhat[t] = zeros(D)
		out[t] = zeros(D)
		for d := 0; d < D; d++ {
			xh := (m[t][d] - mu) / std
			xhat[t][d] = xh
			out[t][d] = gamma*xh + beta
		}
	}

	back := func(dy []Vec) []Vec {
		var dGamma, dBeta, sumDxhat, sumDxhatXhat float64
		dXhat := make([]Vec, T)
		for t := 0; t < T; t++ {
			dXhat[t] = zeros(D)
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
		dm := make([]Vec, T)
		for t := 0; t < T; t++ {
			dm[t] = zeros(D)
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
func (b *ConvBlock) Forward(m []Vec) ([]Vec, MatBackward) {
	T := len(m)
	if T == 0 {
		return nil, func(dy []Vec) []Vec { return nil }
	}
	D := len(m[0])
	w0, w1, w2, bias := b.K.Val[0], b.K.Val[1], b.K.Val[2], b.K.Val[3]

	// Convolution with zero padding along the character axis.
	conv := make([]Vec, T)
	for t := 0; t < T; t++ {
		conv[t] = zeros(D)
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

	norm, bnBack := b.BN.Forward(conv)
	out := make([]Vec, T)
	for t := 0; t < T; t++ {
		out[t] = zeros(D)
		for d := 0; d < D; d++ {
			if y := norm[t][d]; y > 0 {
				out[t][d] = y
			}
		}
	}

	back := func(dy []Vec) []Vec {
		// ReLU backward.
		dNorm := make([]Vec, T)
		for t := 0; t < T; t++ {
			dNorm[t] = zeros(D)
			for d := 0; d < D; d++ {
				if norm[t][d] > 0 {
					dNorm[t][d] = dy[t][d]
				}
			}
		}
		dConv := bnBack(dNorm)
		// Convolution backward.
		dm := make([]Vec, T)
		for t := 0; t < T; t++ {
			dm[t] = zeros(D)
		}
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
func AvgPoolCols(m []Vec) (Vec, MatBackward) {
	T := len(m)
	if T == 0 {
		return nil, func(dy []Vec) []Vec { return nil }
	}
	D := len(m[0])
	y := zeros(D)
	for _, row := range m {
		addInto(y, row)
	}
	inv := 1 / float64(T)
	for i := range y {
		y[i] *= inv
	}
	back := func(dy []Vec) []Vec {
		d := dy[0]
		dm := make([]Vec, T)
		for t := 0; t < T; t++ {
			dm[t] = zeros(D)
			for i := range d {
				dm[t][i] = d[i] * inv
			}
		}
		return dm
	}
	return y, back
}
