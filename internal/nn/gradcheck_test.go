package nn

import (
	"math"
	"math/rand"
	"testing"
)

// Finite-difference gradient checks for the three structured layers
// (ConvBlock, LSTM, BatchNorm), table-driven over shapes: every
// parameter is perturbed by ±fdEps and the analytic gradient must match
// the central difference within fdTol relative error.
const (
	fdEps = 1e-5
	fdTol = 1e-4
)

// fdCheckParams compares analytic parameter gradients (already
// accumulated in params) against central finite differences of forward.
func fdCheckParams(t *testing.T, params []*Param, forward func() float64) {
	t.Helper()
	for _, p := range params {
		for i := range p.Val {
			orig := p.Val[i]
			p.Val[i] = orig + fdEps
			lp := forward()
			p.Val[i] = orig - fdEps
			lm := forward()
			p.Val[i] = orig
			want := (lp - lm) / (2 * fdEps)
			got := p.Grad[i]
			if math.Abs(got-want) > fdTol*(1+math.Abs(want)) {
				t.Errorf("%s grad[%d] = %g, finite difference %g", p, i, got, want)
			}
		}
	}
}

// randMat fills a T×D matrix with values in (-1, 1).
func randMat(rng *rand.Rand, T, D int) []Vec {
	m := make([]Vec, T)
	for t := range m {
		m[t] = make(Vec, D)
		for d := range m[t] {
			m[t][d] = rng.Float64()*2 - 1
		}
	}
	return m
}

// matLoss is a deterministic scalar loss over a matrix with row-dependent
// weights, so gradients are non-uniform across both axes.
func matLoss(m []Vec) (float64, []Vec) {
	var loss float64
	dy := make([]Vec, len(m))
	for t := range m {
		dy[t] = make(Vec, len(m[t]))
		for d, v := range m[t] {
			w := math.Sin(float64(t*7+d) + 0.5)
			loss += w * v
			dy[t][d] = w
		}
	}
	return loss, dy
}

func TestConvBlockGradientsTableDriven(t *testing.T) {
	shapes := []struct{ T, D int }{
		{1, 1}, {1, 4}, {2, 3}, {3, 1}, {4, 2}, {6, 5},
	}
	for _, sh := range shapes {
		rng := rand.New(rand.NewSource(int64(100*sh.T + sh.D)))
		b := NewConvBlock("conv", rng)
		// Non-trivial norm parameters so their gradients are exercised.
		b.BN.Gamma.Val[0] = 1.3
		b.BN.Beta.Val[0] = 0.2
		m := randMat(rng, sh.T, sh.D)
		forward := func() float64 {
			y, _ := b.Forward(m, nil)
			loss, _ := matLoss(y)
			return loss
		}
		ZeroGrads(b.Params())
		y, back := b.Forward(m, nil)
		_, dy := matLoss(y)
		dm := back(dy)
		fdCheckParams(t, b.Params(), forward)
		for ti := range m {
			for d := range m[ti] {
				orig := m[ti][d]
				m[ti][d] = orig + fdEps
				lp := forward()
				m[ti][d] = orig - fdEps
				lm := forward()
				m[ti][d] = orig
				want := (lp - lm) / (2 * fdEps)
				if math.Abs(dm[ti][d]-want) > fdTol*(1+math.Abs(want)) {
					t.Errorf("shape %dx%d: dm[%d][%d] = %g, want %g", sh.T, sh.D, ti, d, dm[ti][d], want)
				}
			}
		}
	}
}

func TestLSTMCellGradientsTableDriven(t *testing.T) {
	shapes := []struct{ in, hidden, steps int }{
		{1, 1, 1}, {2, 3, 2}, {3, 2, 3}, {4, 5, 4},
	}
	for _, sh := range shapes {
		rng := rand.New(rand.NewSource(int64(10*sh.in + sh.hidden)))
		l := NewLSTM("cell", sh.in, sh.hidden, rng)
		xs := randMat(rng, sh.steps, sh.in)
		// From the second step on the recurrent state is non-zero, so
		// every gate and both state paths contribute.
		forward := func() float64 {
			h, _ := l.Forward(xs, nil)
			loss, _ := sumLoss(h)
			return loss
		}
		ZeroGrads(l.Params())
		h, back := l.Forward(xs, nil)
		_, dh := sumLoss(h)
		dxs := back(dh)
		fdCheckParams(t, l.Params(), forward)
		for s := range xs {
			for i := range xs[s] {
				orig := xs[s][i]
				xs[s][i] = orig + fdEps
				lp := forward()
				xs[s][i] = orig - fdEps
				lm := forward()
				xs[s][i] = orig
				want := (lp - lm) / (2 * fdEps)
				if math.Abs(dxs[s][i]-want) > fdTol*(1+math.Abs(want)) {
					t.Errorf("in=%d hidden=%d: dxs[%d][%d] = %g, want %g", sh.in, sh.hidden, s, i, dxs[s][i], want)
				}
			}
		}
	}
}

func TestBatchNormGradientsTableDriven(t *testing.T) {
	shapes := []struct{ T, D int }{
		{1, 2}, {2, 2}, {3, 4}, {5, 1}, {4, 6},
	}
	for _, sh := range shapes {
		rng := rand.New(rand.NewSource(int64(1000*sh.T + sh.D)))
		bn := NewBatchNorm("bn")
		bn.Gamma.Val[0] = 0.8
		bn.Beta.Val[0] = -0.4
		m := randMat(rng, sh.T, sh.D)
		forward := func() float64 {
			y, _ := bn.Forward(m, nil)
			loss, _ := matLoss(y)
			return loss
		}
		ZeroGrads(bn.Params())
		y, back := bn.Forward(m, nil)
		_, dy := matLoss(y)
		dm := back(dy)
		fdCheckParams(t, bn.Params(), forward)
		for ti := range m {
			for d := range m[ti] {
				orig := m[ti][d]
				m[ti][d] = orig + fdEps
				lp := forward()
				m[ti][d] = orig - fdEps
				lm := forward()
				m[ti][d] = orig
				want := (lp - lm) / (2 * fdEps)
				if math.Abs(dm[ti][d]-want) > fdTol*(1+math.Abs(want)) {
					t.Errorf("shape %dx%d: dm[%d][%d] = %g, want %g", sh.T, sh.D, ti, d, dm[ti][d], want)
				}
			}
		}
	}
}

func TestBatchNormEmptyMatrix(t *testing.T) {
	bn := NewBatchNorm("bn")
	y, back := bn.Forward(nil, nil)
	if y != nil || back(nil) != nil {
		t.Error("empty matrix should normalize to nil")
	}
}
