package nn

// Float32 inference kernels: the scalar primitives behind the f32 mirror
// layers (infer32.go) — the canonical dot product and the row-major
// matrix-vector product that define the accumulation order, elementwise
// helpers, and the polynomial activations. The serving forward runs its
// products and LSTM gates on the packed-single kernels of lanes32.go,
// which keep exactly these chains lane by lane; MatVec32 stays as their
// row-major reference and as a standalone kernel.
//
// Numerics contract: every dot product reduces in the canonical order
// defined by dot32 — two accumulator chains over even/odd column pairs,
// combined as (even + odd) at the end. Row blocking (here) and row
// lanes (lanes32.go) change which rows are in flight, never the per-row
// reduction order, so results are bit-identical across block sizes and
// layouts and the f32-vs-f64 tolerance bounds pinned in the tests are
// stable. See PERFORMANCE.md ("Canonical accumulation order").

// Vec32 is a dense float32 vector, the element type of the inference
// mirror layers.
type Vec32 = []float32

// F32From converts a float64 vector into dst (same length), the
// mirror-materialization primitive.
func F32From(dst Vec32, src Vec) {
	for i, v := range src {
		dst[i] = float32(v)
	}
}

// dot32 is the canonical f32 reduction: even/odd dual accumulator
// chains, combined as even+odd. Every kernel in this file that reduces
// over columns uses exactly this order.
func dot32(w, x Vec32) float32 {
	// Pin both lengths to the same value so the indexed loads below
	// prove in-bounds (no per-element checks in the reduction).
	n := len(x)
	w = w[:n]
	var s0, s1 float32
	c := 0
	for ; c+2 <= n; c += 2 {
		s0 += w[c] * x[c]
		s1 += w[c+1] * x[c+1]
	}
	if c < n {
		s0 += w[c] * x[c]
	}
	return s0 + s1
}

// MatVec32 computes dst = W·x + b for a row-major W [rows × cols]:
// dst[r] = b[r] + Σc W[r·cols+c]·x[c]. Rows are blocked four at a time
// (eight live accumulators with the even/odd column pairing), the tail
// rows reduce in the same canonical per-row order, so the result is
// independent of the blocking. dst must not alias x; len(x) may be
// shorter than cols when the logical input is zero-padded (the unread
// columns contribute nothing).
func MatVec32(dst Vec32, w Vec32, rows, cols int, b Vec32, x Vec32) {
	x = x[:len(x):len(x)]
	n := len(x)
	// Exact-length views: every index below is provably in bounds, so
	// the 10 loads of the inner loop compile check-free (the kernel is
	// compute-bound; per-element bounds checks cost ~25% here).
	dst = dst[:rows]
	b = b[:rows]
	r := 0
	for ; r+4 <= rows; r += 4 {
		r0 := w[r*cols:][:n]
		r1 := w[(r+1)*cols:][:n]
		r2 := w[(r+2)*cols:][:n]
		r3 := w[(r+3)*cols:][:n]
		var s00, s01, s10, s11, s20, s21, s30, s31 float32
		c := 0
		for ; c+2 <= n; c += 2 {
			x0, x1 := x[c], x[c+1]
			s00 += r0[c] * x0
			s01 += r0[c+1] * x1
			s10 += r1[c] * x0
			s11 += r1[c+1] * x1
			s20 += r2[c] * x0
			s21 += r2[c+1] * x1
			s30 += r3[c] * x0
			s31 += r3[c+1] * x1
		}
		if c < n {
			x0 := x[c]
			s00 += r0[c] * x0
			s10 += r1[c] * x0
			s20 += r2[c] * x0
			s30 += r3[c] * x0
		}
		dst[r] = b[r] + (s00 + s01)
		dst[r+1] = b[r+1] + (s10 + s11)
		dst[r+2] = b[r+2] + (s20 + s21)
		dst[r+3] = b[r+3] + (s30 + s31)
	}
	for ; r < rows; r++ {
		dst[r] = b[r] + dot32(w[r*cols:], x)
	}
}

// Sum32 writes x ⊕ y elementwise into dst (the residual connection);
// dst may alias either input.
func Sum32(dst, x, y Vec32) {
	for i := range x {
		dst[i] = x[i] + y[i]
	}
}

// ReLU32 writes max(0, x) elementwise in place: a negative element
// becomes +0, and −0 and NaN stay as they are. Whole blocks of eight
// run in reluBlocks (lanes32.go's packed kernels), the rest in relu32Go.
func ReLU32(x Vec32) {
	relu32Go(reluBlocks(x))
}

// relu32Go is ReLU32's portable kernel, and its tail after the packed
// one.
func relu32Go(x Vec32) {
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		}
	}
}

// tanhClamp bounds the rational approximation's domain; beyond it
// float32 tanh is ±1 to the last ulp.
const tanhClamp = 7.90531110763549805

// Tanh32 approximates tanh with the classic Cephes-derived rational
// polynomial (odd 13th-degree numerator over even 6th-degree
// denominator) used throughout SIMD math libraries: max error ≲2e-7
// over the full clamped range, pinned by the kernel tests. It replaces
// math.Tanh (and, via Sigmoid32, math.Exp) in the LSTM gate loop, where
// the transcendental calls would otherwise dominate the f32 forward.
func Tanh32(x float32) float32 {
	if x > tanhClamp {
		x = tanhClamp
	} else if x < -tanhClamp {
		x = -tanhClamp
	}
	x2 := x * x
	p := x * (alpha1 + x2*(alpha3+x2*(alpha5+x2*(alpha7+x2*(alpha9+x2*(alpha11+x2*alpha13))))))
	q := beta0 + x2*(beta2+x2*(beta4+x2*beta6))
	return p / q
}

// Rational tanh coefficients (minimax fit on [-9, 9]; the standard
// constants found in Cephes descendants).
const (
	alpha1  = 4.89352455891786e-03
	alpha3  = 6.37261928875436e-04
	alpha5  = 1.48572235717979e-05
	alpha7  = 5.12229709037114e-08
	alpha9  = -8.60467152213735e-11
	alpha11 = 2.00018790482477e-13
	alpha13 = -2.76076847742355e-16
	beta0   = 4.89352518554385e-03
	beta2   = 2.26843463243900e-03
	beta4   = 1.18534705686654e-04
	beta6   = 1.19825839466702e-06
)

// Sigmoid32 approximates the logistic function through Tanh32 via
// σ(x) = (1 + tanh(x/2))/2, inheriting its error bound (halved).
func Sigmoid32(x float32) float32 {
	return 0.5 + 0.5*Tanh32(0.5*x)
}
