package nn

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestPersistRoundTripPredictions saves a trained stack of layers,
// loads it into a differently initialized clone, and asserts identical
// predictions on 100 random inputs — byte-exact, since SaveParams
// serializes full float64 precision.
func TestPersistRoundTripPredictions(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m1 := NewMLP("net", []int{6, 16, 8, 1}, rng)
	// Nudge weights away from init so the round trip covers trained state.
	opt := &SGD{LR: 0.01}
	for step := 0; step < 20; step++ {
		ZeroGrads(m1.Params())
		x := make(Vec, 6)
		for j := range x {
			x[j] = rng.Float64()
		}
		y, back := m1.Forward(x)
		back(Vec{2 * (y[0] - 1)})
		opt.Step(m1.Params())
	}

	var buf bytes.Buffer
	if err := SaveParams(&buf, m1.Params()); err != nil {
		t.Fatal(err)
	}
	m2 := NewMLP("net", []int{6, 16, 8, 1}, rand.New(rand.NewSource(77)))
	if err := LoadParams(bytes.NewReader(buf.Bytes()), m2.Params()); err != nil {
		t.Fatal(err)
	}

	inputs := make([]Vec, 100)
	for i := range inputs {
		inputs[i] = make(Vec, 6)
		for j := range inputs[i] {
			inputs[i][j] = rng.Float64()*4 - 2
		}
	}
	var differed bool
	for i, x := range inputs {
		y1, _ := m1.Forward(x)
		y2, _ := m2.Forward(x)
		if y1[0] != y2[0] {
			t.Fatalf("input %d: loaded model predicts %g, original %g", i, y2[0], y1[0])
		}
		if y1[0] != 0 {
			differed = true
		}
	}
	if !differed {
		t.Fatal("all predictions zero; test is vacuous")
	}
}

// TestPersistRoundTripStructuredLayers covers the LSTM and ConvBlock
// parameter groups through the same save→load→predict contract.
func TestPersistRoundTripStructuredLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	l1 := NewLSTM("enc", 3, 5, rng)
	c1 := NewConvBlock("cv", rng)
	params := append(l1.Params(), c1.Params()...)

	var buf bytes.Buffer
	if err := SaveParams(&buf, params); err != nil {
		t.Fatal(err)
	}
	rng2 := rand.New(rand.NewSource(88))
	l2 := NewLSTM("enc", 3, 5, rng2)
	c2 := NewConvBlock("cv", rng2)
	if err := LoadParams(bytes.NewReader(buf.Bytes()), append(l2.Params(), c2.Params()...)); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 100; i++ {
		xs := []Vec{{rng.Float64(), rng.Float64(), rng.Float64()}}
		h1, _ := l1.Forward(xs, nil)
		h2, _ := l2.Forward(xs, nil)
		for j := range h1 {
			if h1[j] != h2[j] {
				t.Fatalf("input %d: LSTM outputs differ at %d", i, j)
			}
		}
		m := randMat(rng, 3, 2)
		y1, _ := c1.Forward(m, nil)
		y2, _ := c2.Forward(m, nil)
		for ti := range y1 {
			for d := range y1[ti] {
				if y1[ti][d] != y2[ti][d] {
					t.Fatalf("input %d: ConvBlock outputs differ at (%d,%d)", i, ti, d)
				}
			}
		}
	}
}
