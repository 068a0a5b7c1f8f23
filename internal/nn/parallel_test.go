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

// TestParallelForStripedFoldsInIndexOrder: every item runs once, on
// worker i mod workers, and its fold runs on the same worker after its
// work and strictly in index order, before that worker's next item.
func TestParallelForStripedFoldsInIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 2, 5, 100} {
			p := Workers(n, workers)
			done := make([]atomic.Int32, n)
			var folded []int // written by fold only, which runs one at a time
			ParallelForStriped(n, workers, func(w, i int) {
				if w != i%p {
					t.Errorf("workers=%d n=%d: item %d ran on worker %d", workers, n, i, w)
				}
				if i >= p && done[i-p].Load() != 2 {
					t.Errorf("workers=%d n=%d: item %d ran before item %d folded", workers, n, i, i-p)
				}
				done[i].Add(1)
			}, func(w, i int) {
				if w != i%p || done[i].Load() != 1 {
					t.Errorf("workers=%d n=%d: item %d folded on worker %d after %d runs", workers, n, i, w, done[i].Load())
				}
				done[i].Add(1)
				folded = append(folded, i)
			})
			for i, got := range folded {
				if got != i {
					t.Fatalf("workers=%d n=%d: fold order %v", workers, n, folded)
				}
			}
			if len(folded) != n {
				t.Fatalf("workers=%d n=%d: %d folds", workers, n, len(folded))
			}
		}
	}
}
