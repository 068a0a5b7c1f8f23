package nn

import (
	"math"
	"math/rand"
	"testing"
)

// specials32 are the float32 values whose handling a reordered or fused
// kernel would get wrong first.
var specials32 = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -3e-39,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.MaxFloat32, -math.MaxFloat32,
}

// fillSpecial32 fills v with uniform values in ±scale, each replaced by
// one of specials32 with probability 1/every (never when every is 0).
func fillSpecial32(rng *rand.Rand, v Vec32, scale float32, every int) {
	for i := range v {
		v[i] = (rng.Float32()*2 - 1) * scale
		if every > 0 && rng.Intn(every) == 0 {
			v[i] = specials32[rng.Intn(len(specials32))]
		}
	}
}

// sameBits32 compares two results bit for bit, except that any NaN
// matches any NaN. Which of two NaN operands an x86 add or multiply
// returns depends on their order, and the Go compiler picks that order
// per statement (MatVec32 itself adds the product to the accumulator in
// some rows and the accumulator to the product in others), so the sign
// and payload of a NaN result are not a property of the kernel.
func sameBits32(a, b float32) bool {
	if a != a && b != b {
		return true
	}
	return math.Float32bits(a) == math.Float32bits(b)
}

// transpose32 returns the column-major copy of a row-major [rows × cols].
func transpose32(w Vec32, rows, cols int) Vec32 {
	t := make(Vec32, len(w))
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			t[c*rows+r] = w[r*cols+c]
		}
	}
	return t
}

// TestMatVecCols32Parity holds the column-major kernel (SSE on amd64) and
// its Go twin to the row-major MatVec32, bit for bit: every mirror shape,
// rows 1–17 and 64 against cols 1–33, inputs shorter than cols, and
// weights, inputs and biases that are ±0, subnormal, ±Inf or NaN.
func TestMatVecCols32Parity(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	type shape struct{ rows, cols, xlen int }
	var shapes []shape
	for _, s := range [][2]int{{64, 16}, {64, 73}, {64, 256}, {8, 8}, {56, 32}, {32, 56}, {16, 64}, {1, 16}} {
		shapes = append(shapes, shape{s[0], s[1], s[1]})
	}
	for rows := 1; rows <= 17; rows++ {
		for cols := 1; cols <= 33; cols++ {
			shapes = append(shapes, shape{rows, cols, cols}, shape{rows, cols, 1 + rng.Intn(cols)})
		}
	}
	for cols := 1; cols <= 33; cols++ {
		shapes = append(shapes, shape{64, cols, cols}, shape{64, cols, 1 + rng.Intn(cols)})
	}
	for _, s := range shapes {
		for _, every := range []int{0, 40, 4} {
			w := make(Vec32, s.rows*s.cols)
			b := make(Vec32, s.rows)
			x := make(Vec32, s.xlen)
			fillSpecial32(rng, w, 2, every)
			fillSpecial32(rng, b, 1, every)
			fillSpecial32(rng, x, 2, every)
			want := make(Vec32, s.rows)
			MatVec32(want, w, s.rows, s.cols, b, x)

			wc := transpose32(w, s.rows, s.cols)
			got := make(Vec32, s.rows)
			matVecCols32(got, wc, b, x)
			twin := make(Vec32, s.rows)
			r4 := s.rows &^ 3
			matVecBlocksGo(twin, wc, b, x, r4)
			matVecTail(twin, wc, b, x, r4)
			for r := range want {
				if !sameBits32(got[r], want[r]) || !sameBits32(twin[r], want[r]) {
					t.Fatalf("rows=%d cols=%d len(x)=%d specials 1/%d row %d: kernel %v (%#x), Go twin %v (%#x), MatVec32 %v (%#x)",
						s.rows, s.cols, s.xlen, every, r, got[r], math.Float32bits(got[r]),
						twin[r], math.Float32bits(twin[r]), want[r], math.Float32bits(want[r]))
				}
			}
		}
	}
}

// TestLSTMGates32Parity holds the gate kernel (SSE on amd64) to the Go
// loop, bit for bit on h and c, NaNs included: Hidden 1–17,
// pre-activations at NaN, ±0, ±tanhClamp and their float32 neighbours,
// ±40, subnormals, ±Inf and ordinary values, over cell states that
// include the same.
func TestLSTMGates32Parity(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	clamp := float32(tanhClamp)
	edges := []float32{
		float32(math.NaN()), 0, float32(math.Copysign(0, -1)),
		clamp, -clamp,
		math.Nextafter32(clamp, 0), math.Nextafter32(clamp, 100),
		math.Nextafter32(-clamp, 0), math.Nextafter32(-clamp, -100),
		2 * clamp, -2 * clamp, math.Nextafter32(2*clamp, 0), math.Nextafter32(-2*clamp, 0),
		40, -40, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -1e-39,
		float32(math.Inf(1)), float32(math.Inf(-1)),
	}
	draw := func(scale float32) float32 {
		if rng.Intn(3) == 0 {
			return edges[rng.Intn(len(edges))]
		}
		return (rng.Float32()*2 - 1) * scale
	}
	for H := 1; H <= 17; H++ {
		for trial := 0; trial < 200; trial++ {
			pre := make(Vec32, 4*H)
			c := make(Vec32, H)
			for i := range pre {
				pre[i] = draw(12)
			}
			for i := range c {
				c[i] = draw(3)
			}
			hGot, cGot := make(Vec32, H), append(Vec32(nil), c...)
			hWant, cWant := make(Vec32, H), append(Vec32(nil), c...)
			gateUnits(hWant, cWant, pre, 0, H)
			lstmGates32(hGot, cGot, append(Vec32(nil), pre...)) // overwrites its pre
			for j := 0; j < H; j++ {
				if math.Float32bits(hGot[j]) != math.Float32bits(hWant[j]) || math.Float32bits(cGot[j]) != math.Float32bits(cWant[j]) {
					t.Fatalf("H=%d unit %d, pre (i f g o) = %v %v %v %v, c = %v: kernel h %v c %v, Go loop h %v c %v",
						H, j, pre[j], pre[H+j], pre[2*H+j], pre[3*H+j], c[j], hGot[j], cGot[j], hWant[j], cWant[j])
				}
			}
		}
	}
}
