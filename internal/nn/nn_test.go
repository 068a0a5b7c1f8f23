package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// sumLoss is a deterministic scalar loss over a vector: L = Σ w_i·y_i with
// fixed pseudo-random weights, giving non-uniform output gradients.
func sumLoss(y Vec) (float64, Vec) {
	var loss float64
	grad := zeros(len(y))
	for i := range y {
		w := math.Sin(float64(i) + 1)
		loss += w * y[i]
		grad[i] = w
	}
	return loss, grad
}

// checkParamGrads compares analytic parameter gradients against central
// finite differences for a forward function returning the scalar loss.
func checkParamGrads(t *testing.T, params []*Param, forward func() float64, tol float64) {
	t.Helper()
	const eps = 1e-6
	for _, p := range params {
		for i := range p.Val {
			orig := p.Val[i]
			p.Val[i] = orig + eps
			lp := forward()
			p.Val[i] = orig - eps
			lm := forward()
			p.Val[i] = orig
			want := (lp - lm) / (2 * eps)
			got := p.Grad[i]
			if math.Abs(got-want) > tol*(1+math.Abs(want)) {
				t.Errorf("%s grad[%d] = %g, finite difference %g", p, i, got, want)
			}
		}
	}
}

func TestLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear("fc", 4, 3, rng)
	x := Vec{0.5, -1, 2, 0.3}
	forward := func() float64 {
		y, _ := l.Forward(x)
		loss, _ := sumLoss(y)
		return loss
	}
	ZeroGrads(l.Params())
	y, back := l.Forward(x)
	_, dy := sumLoss(y)
	dx := back(dy)
	checkParamGrads(t, l.Params(), forward, 1e-6)
	// Input gradient via finite differences.
	const eps = 1e-6
	for i := range x {
		orig := x[i]
		x[i] = orig + eps
		lp := forward()
		x[i] = orig - eps
		lm := forward()
		x[i] = orig
		want := (lp - lm) / (2 * eps)
		if math.Abs(dx[i]-want) > 1e-6 {
			t.Errorf("dx[%d] = %g, want %g", i, dx[i], want)
		}
	}
}

func TestActivationGradients(t *testing.T) {
	acts := map[string]func(Vec) (Vec, Backward){
		"relu": ReLU,
	}
	x := Vec{-1.5, -0.2, 0.3, 2.0}
	for name, act := range acts {
		y, back := act(x)
		_, dy := sumLoss(y)
		dx := back(dy)
		const eps = 1e-6
		for i := range x {
			orig := x[i]
			x[i] = orig + eps
			yp, _ := act(x)
			lp, _ := sumLoss(yp)
			x[i] = orig - eps
			ym, _ := act(x)
			lm, _ := sumLoss(ym)
			x[i] = orig
			want := (lp - lm) / (2 * eps)
			if math.Abs(dx[i]-want) > 1e-5 {
				t.Errorf("%s: dx[%d] = %g, want %g", name, i, dx[i], want)
			}
		}
	}
}

func TestEmbeddingGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e := NewEmbedding("emb", 5, 3, rng)
	forward := func() float64 {
		y1, _ := e.Forward(2, nil)
		y2, _ := e.Forward(2, nil) // repeated lookup accumulates
		y3, _ := e.Forward(4, nil)
		l1, _ := sumLoss(y1)
		l2, _ := sumLoss(y2)
		l3, _ := sumLoss(y3)
		return l1 + l2 + l3
	}
	ZeroGrads(e.Params())
	y1, b1 := e.Forward(2, nil)
	y2, b2 := e.Forward(2, nil)
	y3, b3 := e.Forward(4, nil)
	_, d1 := sumLoss(y1)
	_, d2 := sumLoss(y2)
	_, d3 := sumLoss(y3)
	b1(d1)
	b2(d2)
	b3(d3)
	checkParamGrads(t, e.Params(), forward, 1e-6)
}

func TestEmbeddingClampsUnknownIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e := NewEmbedding("emb", 4, 2, rng)
	y1, _ := e.Forward(-7, nil)
	y2, _ := e.Forward(99, nil)
	y0, _ := e.Forward(0, nil)
	for i := range y0 {
		if y1[i] != y0[i] || y2[i] != y0[i] {
			t.Fatal("out-of-range ids should clamp to row 0")
		}
	}
}

func TestLSTMGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := NewLSTM("lstm", 3, 4, rng)
	xs := []Vec{{0.1, -0.5, 0.3}, {0.7, 0.2, -0.8}, {-0.3, 0.9, 0.4}}
	forward := func() float64 {
		h, _ := l.Forward(xs, nil)
		loss, _ := sumLoss(h)
		return loss
	}
	ZeroGrads(l.Params())
	h, back := l.Forward(xs, nil)
	_, dh := sumLoss(h)
	dxs := back(dh)
	checkParamGrads(t, l.Params(), forward, 1e-5)
	// Check input gradients of the middle step.
	const eps = 1e-6
	for i := range xs[1] {
		orig := xs[1][i]
		xs[1][i] = orig + eps
		lp := forward()
		xs[1][i] = orig - eps
		lm := forward()
		xs[1][i] = orig
		want := (lp - lm) / (2 * eps)
		if math.Abs(dxs[1][i]-want) > 1e-5 {
			t.Errorf("dxs[1][%d] = %g, want %g", i, dxs[1][i], want)
		}
	}
}

func TestLSTMEmptySequence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := NewLSTM("lstm", 2, 3, rng)
	h, back := l.Forward(nil, nil)
	for _, v := range h {
		if v != 0 {
			t.Fatal("empty sequence should encode to zeros")
		}
	}
	if dxs := back(zeros(3)); len(dxs) != 0 {
		t.Fatal("no input gradients expected")
	}
}

func TestConvBlockGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	b := NewConvBlock("conv", rng)
	m := []Vec{{0.2, -0.4}, {0.9, 0.1}, {-0.6, 0.5}, {0.3, 0.8}}
	forward := func() float64 {
		y, _ := b.Forward(m, nil)
		var loss float64
		for t := range y {
			l, _ := sumLoss(y[t])
			loss += l * float64(t+1)
		}
		return loss
	}
	ZeroGrads(b.Params())
	y, back := b.Forward(m, nil)
	dy := make([]Vec, len(y))
	for ti := range y {
		_, g := sumLoss(y[ti])
		dy[ti] = zeros(len(g))
		for i := range g {
			dy[ti][i] = g[i] * float64(ti+1)
		}
	}
	dm := back(dy)
	checkParamGrads(t, b.Params(), forward, 1e-4)
	const eps = 1e-6
	for ti := range m {
		for i := range m[ti] {
			orig := m[ti][i]
			m[ti][i] = orig + eps
			lp := forward()
			m[ti][i] = orig - eps
			lm := forward()
			m[ti][i] = orig
			want := (lp - lm) / (2 * eps)
			if math.Abs(dm[ti][i]-want) > 1e-4*(1+math.Abs(want)) {
				t.Errorf("dm[%d][%d] = %g, want %g", ti, i, dm[ti][i], want)
			}
		}
	}
}

func TestMLPGradientsAndShape(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMLP("dqn", []int{5, 16, 64, 16, 1}, rng)
	if got := len(m.Layers); got != 4 {
		t.Fatalf("want 4 layers, got %d", got)
	}
	x := Vec{0.1, -0.2, 0.3, 0.4, -0.5}
	forward := func() float64 {
		y, _ := m.Forward(x)
		return y[0] * 3
	}
	ZeroGrads(m.Params())
	y, back := m.Forward(x)
	if len(y) != 1 {
		t.Fatalf("output dim %d, want 1", len(y))
	}
	back(Vec{3})
	checkParamGrads(t, m.Params(), forward, 1e-4)
}

func TestAvgPoolGradients(t *testing.T) {
	xs := []Vec{{1, 2}, {3, 4}, {5, 12}}
	y, back := AvgPool(xs, nil)
	if y[0] != 3 || y[1] != 6 {
		t.Fatalf("AvgPool = %v", y)
	}
	d := back(Vec{3, 9})
	if d[0] != 1 || d[1] != 3 {
		t.Errorf("AvgPool backward = %v", d)
	}
}

func TestAvgPoolColsGradients(t *testing.T) {
	m := []Vec{{2, 4}, {6, 8}}
	y, back := AvgPoolCols(m, nil)
	if y[0] != 4 || y[1] != 6 {
		t.Fatalf("AvgPoolCols = %v", y)
	}
	dm := back([]Vec{{2, 4}})
	if dm[0][0] != 1 || dm[1][1] != 2 {
		t.Errorf("AvgPoolCols backward = %v", dm)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (w-3)^2 in one parameter.
	p := NewParam("w", 1, 1)
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		p.ZeroGrad()
		p.Grad[0] = 2 * (p.Val[0] - 3)
		opt.Step([]*Param{p})
	}
	if math.Abs(p.Val[0]-3) > 1e-3 {
		t.Errorf("Adam did not converge: w = %v", p.Val[0])
	}
}

func TestSGDStepAndClip(t *testing.T) {
	p := NewParam("w", 1, 2)
	p.Grad[0] = 10
	p.Grad[1] = -10
	(&SGD{LR: 0.1, Clip: 1}).Step([]*Param{p})
	if p.Val[0] != -0.1 || p.Val[1] != 0.1 {
		t.Errorf("clipped SGD step wrong: %v", p.Val)
	}
}

func TestLinearTrainsToTarget(t *testing.T) {
	// Fit y = 2a - b + 0.5 with a single linear layer.
	rng := rand.New(rand.NewSource(8))
	l := NewLinear("fit", 2, 1, rng)
	opt := NewAdam(0.05)
	for epoch := 0; epoch < 400; epoch++ {
		ZeroGrads(l.Params())
		for i := 0; i < 8; i++ {
			a, b := rng.Float64(), rng.Float64()
			target := 2*a - b + 0.5
			y, back := l.Forward(Vec{a, b})
			back(Vec{2 * (y[0] - target)}) // d/dy of the squared error
		}
		opt.Step(l.Params())
	}
	y, _ := l.Forward(Vec{1, 1})
	if math.Abs(y[0]-1.5) > 0.05 {
		t.Errorf("trained prediction = %v, want 1.5", y[0])
	}
}

func TestConcatSplit(t *testing.T) {
	c := Concat(nil, Vec{1, 2}, Vec{3}, Vec{4, 5, 6})
	if len(c) != 6 || c[2] != 3 || c[5] != 6 {
		t.Fatalf("Concat = %v", c)
	}
	parts := SplitBackward(c, 2, 1, 3)
	if len(parts) != 3 || parts[1][0] != 3 || parts[2][2] != 6 {
		t.Errorf("SplitBackward = %v", parts)
	}
}

// TestAddIntoEveryTail: the four-wide fold must add every element exactly
// once at lengths on both sides of each multiple of four, and leave dst
// beyond len(src) alone.
func TestAddIntoEveryTail(t *testing.T) {
	for n := 0; n <= 13; n++ {
		dst, src := make(Vec, n+1), make(Vec, n)
		for i := range src {
			dst[i], src[i] = float64(i), float64(10*i+1)
		}
		dst[n] = -7
		addInto(dst, src)
		for i := range src {
			if want := float64(i) + float64(10*i+1); dst[i] != want {
				t.Fatalf("n=%d: dst[%d] = %v, want %v", n, i, dst[i], want)
			}
		}
		if dst[n] != -7 {
			t.Fatalf("n=%d: addInto wrote past len(src)", n)
		}
	}
}

func TestParamHelpers(t *testing.T) {
	p := NewParam("m", 2, 3)
	if p.Size() != 6 {
		t.Errorf("Size = %d", p.Size())
	}
	p.Val[4] = 7
	if p.Row(1)[1] != 7 {
		t.Errorf("Row(1)[1] = %v", p.Row(1)[1])
	}
	p.Row(0)[2] = 5
	if p.Val[2] != 5 {
		t.Error("Row should share storage")
	}
	p.Grad[0] = 1
	p.ZeroGrad()
	if p.Grad[0] != 0 {
		t.Error("ZeroGrad failed")
	}
}

func TestXavierInitBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := NewParam("w", 10, 20).InitXavier(rng)
	limit := math.Sqrt(6.0 / 30.0)
	var nonzero int
	for _, v := range p.Val {
		if math.Abs(v) > limit {
			t.Fatalf("weight %v exceeds Xavier limit %v", v, limit)
		}
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < 150 {
		t.Error("suspiciously many zero weights")
	}
}

func TestSaveLoadParams(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	l1 := NewLinear("fc", 3, 2, rng)
	var buf bytes.Buffer
	if err := SaveParams(&buf, l1.Params()); err != nil {
		t.Fatal(err)
	}
	l2 := NewLinear("fc", 3, 2, rand.New(rand.NewSource(99)))
	if err := LoadParams(bytes.NewReader(buf.Bytes()), l2.Params()); err != nil {
		t.Fatal(err)
	}
	for i := range l1.W.Val {
		if l1.W.Val[i] != l2.W.Val[i] {
			t.Fatal("weights differ after load")
		}
	}
	// Missing parameter name.
	l3 := NewLinear("other", 3, 2, rng)
	if err := LoadParams(bytes.NewReader(buf.Bytes()), l3.Params()); err == nil {
		t.Error("mismatched names should fail")
	}
	// Shape mismatch.
	l4 := NewLinear("fc", 4, 2, rng)
	if err := LoadParams(bytes.NewReader(buf.Bytes()), l4.Params()); err == nil {
		t.Error("shape mismatch should fail")
	}
	// Garbage input.
	if err := LoadParams(bytes.NewReader([]byte("{")), l2.Params()); err == nil {
		t.Error("garbage should fail")
	}
}

func BenchmarkLSTMForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	l := NewLSTM("bench", 16, 16, rng)
	xs := make([]Vec, 10)
	for i := range xs {
		xs[i] = make(Vec, 16)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()
		}
	}
	dh := make(Vec, 16)
	for i := range dh {
		dh[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, back := l.Forward(xs, nil)
		back(dh)
	}
}

func BenchmarkMLPForward(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	m := NewMLP("bench", []int{10, 16, 64, 16, 1}, rng)
	x := make(Vec, 10)
	for i := range x {
		x[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x)
	}
}
