package nn

import (
	"sync/atomic"
	"testing"
)

func TestParallelForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		for _, n := range []int{0, 1, 3, 100} {
			hits := make([]atomic.Int32, n)
			ParallelFor(n, workers, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestParallelForMatchesSerial(t *testing.T) {
	const n = 257
	want := make([]float64, n)
	ParallelFor(n, 1, func(i int) { want[i] = float64(i) * 1.5 })
	got := make([]float64, n)
	ParallelFor(n, 8, func(i int) { got[i] = float64(i) * 1.5 })
	for i := range want {
		if want[i] != got[i] { // bit-identity is the property under test
			t.Fatalf("index %d: serial %v parallel %v", i, want[i], got[i])
		}
	}
}
