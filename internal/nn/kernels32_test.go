package nn

import (
	"math"
	"math/rand"
	"testing"
)

// refDot32 reduces in the canonical even/odd order without any row
// blocking — the definition the blocked kernels must match bit-exactly.
func refDot32(w, x Vec32) float32 {
	var s0, s1 float32
	c := 0
	for ; c+2 <= len(x); c += 2 {
		s0 += w[c] * x[c]
		s1 += w[c+1] * x[c+1]
	}
	if c < len(x) {
		s0 += w[c] * x[c]
	}
	return s0 + s1
}

func randVec32(rng *rand.Rand, n int, scale float32) Vec32 {
	v := make(Vec32, n)
	for i := range v {
		v[i] = (rng.Float32()*2 - 1) * scale
	}
	return v
}

// TestMatVec32CanonicalOrder pins the accumulation-order contract: the
// row-blocked kernel is bit-identical to the unblocked canonical
// reduction for every row/col shape, so tolerance bounds cannot drift
// with block boundaries.
func TestMatVec32CanonicalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for rows := 1; rows <= 10; rows++ {
		for cols := 1; cols <= 19; cols += 3 {
			w := randVec32(rng, rows*cols, 2)
			b := randVec32(rng, rows, 1)
			x := randVec32(rng, cols, 2)
			dst := make(Vec32, rows)
			MatVec32(dst, w, rows, cols, b, x)
			for r := 0; r < rows; r++ {
				want := b[r] + refDot32(w[r*cols:r*cols+cols], x)
				if dst[r] != want { // bit-identity across block sizes is the property under test
					t.Fatalf("rows=%d cols=%d r=%d: blocked %v != canonical %v", rows, cols, r, dst[r], want)
				}
			}
		}
	}
}

// TestMatVec32PaddedInput pins the zero-padding shortcut: passing a
// shorter x equals passing x extended with zeros.
func TestMatVec32PaddedInput(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const rows, cols, short = 7, 12, 5
	w := randVec32(rng, rows*cols, 1)
	b := randVec32(rng, rows, 1)
	x := randVec32(rng, short, 1)
	padded := make(Vec32, cols)
	copy(padded, x)
	got := make(Vec32, rows)
	want := make(Vec32, rows)
	MatVec32(got, w, rows, cols, b, x)
	MatVec32(want, w, rows, cols, b, padded)
	for r := range got {
		if got[r] != want[r] { // zero columns contribute exactly nothing
			t.Fatalf("row %d: short-input %v != padded %v", r, got[r], want[r])
		}
	}
}

// TestMatVec32VsF64 pins the f32-vs-f64 error envelope of the dot
// kernel at serving-relevant shapes.
func TestMatVec32VsF64(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, shape := range [][2]int{{64, 32}, {32, 56}, {56, 32}, {8, 8}, {1, 16}} {
		rows, cols := shape[0], shape[1]
		w64 := make(Vec, rows*cols)
		b64 := make(Vec, rows)
		x64 := make(Vec, cols)
		for i := range w64 {
			w64[i] = rng.NormFloat64()
		}
		for i := range b64 {
			b64[i] = rng.NormFloat64()
		}
		for i := range x64 {
			x64[i] = rng.NormFloat64()
		}
		w := make(Vec32, len(w64))
		b := make(Vec32, len(b64))
		x := make(Vec32, len(x64))
		F32From(w, w64)
		F32From(b, b64)
		F32From(x, x64)
		dst := make(Vec32, rows)
		MatVec32(dst, w, rows, cols, b, x)
		for r := 0; r < rows; r++ {
			want := b64[r]
			for c := 0; c < cols; c++ {
				want += w64[r*cols+c] * x64[c]
			}
			// Absolute term covers cancellation: inputs are O(1), so a
			// result near zero may carry the absolute rounding of the
			// partial sums.
			if !AlmostEqual(float64(dst[r]), want, 1e-5, 1e-4) {
				t.Fatalf("shape %v row %d: f32 %v vs f64 %v", shape, r, dst[r], want)
			}
		}
	}
}

// TestTanh32Accuracy pins the rational approximation's error budget
// against math.Tanh over a dense sweep plus edge cases.
func TestTanh32Accuracy(t *testing.T) {
	var maxAbs float64
	var maxULP int64
	check := func(x float32) {
		got := Tanh32(x)
		want := math.Tanh(float64(x))
		if abs := math.Abs(float64(got) - want); abs > maxAbs {
			maxAbs = abs
		}
		if u := ULPDiff32(got, float32(want)); u > maxULP {
			maxULP = u
		}
	}
	for x := -12.0; x <= 12.0; x += 1e-3 {
		check(float32(x))
	}
	for _, x := range []float32{0, -0, 1e-8, -1e-8, 0.5, -0.5, 20, -20, 1e6, -1e6} {
		check(x)
	}
	// Budgets pinned from measurement with headroom; see PERFORMANCE.md.
	if maxAbs > 4e-7 {
		t.Fatalf("Tanh32 max abs error %.3g exceeds budget 4e-7", maxAbs)
	}
	if maxULP > 16 {
		t.Fatalf("Tanh32 max ULP distance %d exceeds budget 16", maxULP)
	}
	if !math.IsNaN(float64(Tanh32(float32(math.NaN())))) {
		t.Fatal("Tanh32(NaN) must be NaN")
	}
}

// TestSigmoid32Accuracy pins the logistic approximation's budget
// against the f64 1/(1+e^-x).
func TestSigmoid32Accuracy(t *testing.T) {
	var maxAbs float64
	for x := -30.0; x <= 30.0; x += 1e-3 {
		got := Sigmoid32(float32(x))
		want := 1 / (1 + math.Exp(-x))
		if abs := math.Abs(float64(got) - want); abs > maxAbs {
			maxAbs = abs
		}
	}
	if maxAbs > 2e-7 {
		t.Fatalf("Sigmoid32 max abs error %.3g exceeds budget 2e-7", maxAbs)
	}
	if got := Sigmoid32(40); got != 1 { // exact saturation at the clamp bound
		t.Fatalf("Sigmoid32(40) = %v, want exact 1", got)
	}
	if got := Sigmoid32(-40); got != 0 { // exact saturation at the clamp bound
		t.Fatalf("Sigmoid32(-40) = %v, want exact 0", got)
	}
}

func TestArenaVec32(t *testing.T) {
	a := NewArena()
	v1 := a.Vec32(10)
	v2 := a.Vec32(minFloatChunk) // forces a second chunk
	for i := range v1 {
		v1[i] = 1
	}
	for i := range v2 {
		v2[i] = 2
	}
	if v1[9] != 1 || v2[0] != 2 {
		t.Fatal("arena f32 slices must be disjoint")
	}
	if a.Bytes() == 0 {
		t.Fatal("Bytes must count f32 chunks")
	}
	a.Reset()
	v3 := a.Vec32(10)
	for _, x := range v3 {
		if x != 0 { // zeroed-memory contract
			t.Fatal("Vec32 must hand out zeroed memory after Reset")
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		a.Reset()
		_ = a.Vec32(10)
		_ = a.Vec32(minFloatChunk)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Vec32 allocs = %v, want 0", allocs)
	}
}

func TestAlmostEqual(t *testing.T) {
	cases := []struct {
		a, b       float64
		rtol, atol float64
		want       bool
	}{
		{1, 1, 0, 0, true},
		{math.Inf(1), math.Inf(1), 0, 0, true},
		{math.Inf(1), math.Inf(-1), 1e308, 1e308, false},
		{math.NaN(), math.NaN(), 1e300, 1e300, false},
		{1, 1 + 1e-9, 1e-8, 0, true},
		{1, 1 + 1e-7, 1e-8, 0, false},
		{0, 1e-9, 0, 1e-8, true},
		{0, 1e-7, 0, 1e-8, false},
		{-1, 1, 0.5, 0, false},
	}
	for _, c := range cases {
		if got := AlmostEqual(c.a, c.b, c.rtol, c.atol); got != c.want {
			t.Errorf("AlmostEqual(%v, %v, %v, %v) = %v, want %v", c.a, c.b, c.rtol, c.atol, got, c.want)
		}
	}
}

func TestULPDiff32(t *testing.T) {
	if d := ULPDiff32(1, 1); d != 0 {
		t.Fatalf("equal values: %d", d)
	}
	if d := ULPDiff32(0, float32(math.Copysign(0, -1))); d != 0 {
		t.Fatalf("±0: %d", d)
	}
	if d := ULPDiff32(1, math.Nextafter32(1, 2)); d != 1 {
		t.Fatalf("adjacent: %d", d)
	}
	if d := ULPDiff32(-1e-45, 1e-45); d != 2 {
		t.Fatalf("denormals across zero: %d", d)
	}
	if d := ULPDiff32(float32(math.NaN()), 1); d != math.MaxInt64 {
		t.Fatalf("NaN: %d", d)
	}
}
