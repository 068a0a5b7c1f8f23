package nn

import (
	"math/rand"
	"testing"
)

// Per-layer f32 tolerance tests: every mirror is held to the tape
// Forward of the f64 layer it was materialized from — the one f64
// reference each layer has. Inputs are O(1), so the absolute term covers
// results that cancel towards zero.
const (
	layerRTol = 1e-5
	layerATol = 1e-5
)

func toF32(v Vec) Vec32 {
	out := make(Vec32, len(v))
	F32From(out, v)
	return out
}

// flatten32 lays a T×D f64 matrix out row-major in f32.
func flatten32(m []Vec) Vec32 {
	var out Vec32
	for _, row := range m {
		out = append(out, toF32(row)...)
	}
	return out
}

func assertClose32(t *testing.T, ctx string, want Vec, got Vec32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d != %d", ctx, len(got), len(want))
	}
	for i := range want {
		if !AlmostEqual(float64(got[i]), want[i], layerRTol, layerATol) {
			t.Fatalf("%s: element %d: f32 %v vs Forward %v (diff %g)", ctx, i, got[i], want[i], float64(got[i])-want[i])
		}
	}
}

func TestLinear32VsForward(t *testing.T) {
	a := NewArena()
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		in, out := 1+rng.Intn(40), 1+rng.Intn(40)
		l := NewLinear("t.lin", in, out, rng)
		x := randVec(rng, in)
		want, _ := l.Forward(x)
		a.Reset()
		assertClose32(t, "Linear32.Infer", want, NewLinear32(l).Infer(toF32(x), a))
	}
}

func TestEmbedding32VsForward(t *testing.T) {
	rng := rand.New(rand.NewSource(200))
	e := NewEmbedding("t.emb", 9, 5, rng)
	m := NewEmbedding32(e)
	// Out-of-range ids clamp to row 0 on both sides.
	for _, id := range []int{0, 4, 8, -1, 12} {
		want, _ := e.Forward(id)
		assertClose32(t, "Embedding32.Row", want, m.Row(id))
	}
}

func TestBatchNorm32VsForward(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(300 + trial)))
		T, D := 1+rng.Intn(7), 1+rng.Intn(9)
		bn := NewBatchNorm("t.bn")
		bn.Gamma.Val[0] = 0.5 + rng.Float64()
		bn.Beta.Val[0] = rng.NormFloat64()
		m := randMat(rng, T, D)
		want, _ := bn.Forward(m)
		got := flatten32(m)
		NewBatchNorm32(bn).InferInPlace(got)
		for i := range want {
			assertClose32(t, "BatchNorm32.InferInPlace", want[i], got[i*D:i*D+D])
		}
	}
}

func TestConvBlock32VsForward(t *testing.T) {
	a := NewArena()
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(400 + trial)))
		T, D := 1+rng.Intn(7), 1+rng.Intn(9)
		b := NewConvBlock("t.conv", rng)
		m := randMat(rng, T, D)
		want, _ := b.Forward(m)
		a.Reset()
		got := NewConvBlock32(b).Infer(flatten32(m), T, D, a)
		for i := range want {
			assertClose32(t, "ConvBlock32.Infer", want[i], got[i*D:i*D+D])
		}
		wantPool, _ := AvgPoolCols(want)
		pool := make(Vec32, D)
		AvgPoolRows32(pool, got, T, D)
		assertClose32(t, "AvgPoolRows32", wantPool, pool)
	}
}

// TestLSTMCell32VsForward runs whole sequences: the split-matrix cell
// (PreX for the input half, Step for the recurrent half and the gates)
// against LSTM.Forward's final hidden state.
func TestLSTMCell32VsForward(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		in, H := 1+rng.Intn(8), 1+rng.Intn(8)
		l := NewLSTM("t.lstm", in, H, rng)
		xs := randMat(rng, 1+rng.Intn(6), in)
		want, _ := l.Forward(xs)

		c := NewLSTMCell32(l.Cell)
		h, cst := make(Vec32, H), make(Vec32, H)
		pre, preX := make(Vec32, 4*H), make(Vec32, 4*H)
		for _, x := range xs {
			c.PreX(preX, toF32(x))
			c.Step(h, cst, pre, preX)
		}
		assertClose32(t, "LSTMCell32 sequence", want, h)
	}
}
