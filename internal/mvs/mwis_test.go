package mvs

import (
	"math"
	"math/rand"
	"testing"
)

func TestMWISAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		w := make([]float64, n)
		for i := range w {
			w[i] = rng.Float64()*10 - 2
		}
		conflict := make([][]bool, n)
		for i := range conflict {
			conflict[i] = make([]bool, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.3 {
					conflict[i][j] = true
					conflict[j][i] = true
				}
			}
		}
		// Brute force.
		var want float64
		for mask := 0; mask < 1<<n; mask++ {
			ok := true
			var val float64
			for i := 0; i < n && ok; i++ {
				if mask&(1<<i) == 0 {
					continue
				}
				val += w[i]
				for j := i + 1; j < n; j++ {
					if mask&(1<<j) != 0 && conflict[i][j] {
						ok = false
						break
					}
				}
			}
			if ok && val > want {
				want = val
			}
		}
		sel, got := maxWeightIndependentSet(w, conflict)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: MWIS %v, brute force %v", trial, got, want)
		}
		// Verify independence and value.
		var check float64
		for i := range sel {
			if !sel[i] {
				continue
			}
			check += w[i]
			for j := range sel {
				if sel[j] && conflict[i][j] {
					t.Fatalf("trial %d: conflicting pair selected", trial)
				}
			}
		}
		if math.Abs(check-got) > 1e-9 {
			t.Fatalf("trial %d: selection value %v != reported %v", trial, check, got)
		}
	}
}

func TestMWISNeverPicksNegative(t *testing.T) {
	w := []float64{-1, -2, 0}
	conflict := [][]bool{{false, false, false}, {false, false, false}, {false, false, false}}
	sel, val := maxWeightIndependentSet(w, conflict)
	if val != 0 {
		t.Errorf("value = %v, want 0", val)
	}
	for i, s := range sel {
		if s {
			t.Errorf("vertex %d selected with weight %v", i, w[i])
		}
	}
}

func BenchmarkMWIS30(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 30
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.Float64() * 10
	}
	conflict := make([][]bool, n)
	for i := range conflict {
		conflict[i] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.2 {
				conflict[i][j] = true
				conflict[j][i] = true
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		maxWeightIndependentSet(w, conflict)
	}
}
