// Fixtures for the floateq analyzer.
package floateq

import "math"

func exact(a, b float64) bool {
	return a == b // want `floating-point == comparison`
}

func neq(a, b float32) bool {
	return a != b // want `floating-point != comparison`
}

func mixedConst(x float64) bool {
	return x == 0.5 // want `floating-point == comparison`
}

// The NaN self-test is an exact comparison like any other.
func nanCheck(x float64) bool {
	return x != x // want `floating-point != comparison`
}

// Guard: math.IsNaN says what the self-test means.
func isNaN(x float64) bool {
	return math.IsNaN(x)
}

// Guard: two compile-time constants fold exactly.
func constants() bool {
	const eps = 1e-9
	return eps == 1e-9
}

// Guard: integer comparisons are exact by nature.
func ints(a, b int) bool {
	return a == b
}

// Guard: a documented sentinel may be suppressed in place.
func sentinel(x float64) bool {
	return x == 0 //lint:allow floateq zero is the never-computed unset sentinel
}
