package nn

import "math"

// Vetted tolerance comparisons for the f64-train / f32-infer split.
// Non-test float comparisons against the f32 kernel outputs must go
// through these helpers rather than ad-hoc epsilon checks: they are the
// single audited entry point (see the floateq analyzer's audit-note
// pattern in LINTING.md), and their semantics — exact-equality
// short-circuit, combined absolute + relative envelope, ULP distance —
// are pinned by tests.

// AlmostEqual reports whether a and b agree within the combined
// envelope |a-b| ≤ atol + rtol·max(|a|, |b|). The exact-equality
// short-circuit makes equal infinities (and equal zeros of either sign)
// compare true, where the subtraction would produce NaN; NaNs never
// compare equal.
func AlmostEqual(a, b, rtol, atol float64) bool {
	if a == b { //lint:allow floateq(audit) exact-equality short-circuit of the vetted tolerance helper (handles equal infinities)
		return true
	}
	diff := math.Abs(a - b)
	if math.IsInf(diff, 0) {
		return false // opposite infinities (or an overflowed gap) never agree
	}
	scale := math.Abs(a)
	if ab := math.Abs(b); ab > scale {
		scale = ab
	}
	return diff <= atol+rtol*scale
}

// ULPDiff32 returns the distance between a and b in float32 units in
// the last place: the number of representable float32 values strictly
// between them, plus one if they differ. Equal values (including +0
// vs -0) return 0; any NaN returns MaxInt64.
func ULPDiff32(a, b float32) int64 {
	if a == b { //lint:allow floateq(audit) exact-equality short-circuit of the vetted ULP helper (identifies ±0 and equal values)
		return 0
	}
	if a != b && (math.IsNaN(float64(a)) || math.IsNaN(float64(b))) { //lint:allow floateq(audit) NaN guard of the vetted ULP helper
		return math.MaxInt64
	}
	ia := orderedBits32(a)
	ib := orderedBits32(b)
	if ia > ib {
		ia, ib = ib, ia
	}
	return ib - ia
}

// orderedBits32 maps a float32 onto a monotonically ordered integer
// line (sign-magnitude to two's-complement), so ULP distance is integer
// subtraction.
func orderedBits32(f float32) int64 {
	u := math.Float32bits(f)
	if u&(1<<31) != 0 {
		return -int64(u &^ (1 << 31)) // mirror negatives: -0 maps onto 0
	}
	return int64(u)
}
