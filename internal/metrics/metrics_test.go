package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMAE(t *testing.T) {
	if got := MAE([]float64{1, 2, 3}, []float64{2, 2, 1}); got != 1 {
		t.Errorf("MAE = %v, want 1", got)
	}
	if MAE(nil, nil) != 0 {
		t.Error("empty MAE should be 0")
	}
}

func TestMAPE(t *testing.T) {
	got := MAPE([]float64{10, 20}, []float64{9, 22})
	want := 100 * (0.1 + 0.1) / 2
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("MAPE = %v, want %v", got, want)
	}
	// Zero ground truth entries are skipped.
	got = MAPE([]float64{0, 10}, []float64{5, 11})
	if math.Abs(got-10) > 1e-9 {
		t.Errorf("MAPE with zero entry = %v, want 10", got)
	}
	if MAPE([]float64{0}, []float64{1}) != 0 {
		t.Error("all-zero ground truth should give 0")
	}
}

// TestMAPEWithFloor: pairs whose true cost is under 5% of the mean are
// left out; the rest are scored as MAPE scores them.
func TestMAPEWithFloor(t *testing.T) {
	// Mean 25, floor 1.25: the 0.5 pair (estimated 5, a 900% error) drops.
	y := []float64{0.5, 10, 20, 69.5}
	yhat := []float64{5, 9, 22, 69.5}
	want := MAPE([]float64{10, 20, 69.5}, []float64{9, 22, 69.5})
	if got := MAPEWithFloor(y, yhat); math.Abs(got-want) > 1e-12 {
		t.Errorf("MAPEWithFloor = %v, want %v", got, want)
	}
	// A pair exactly at the floor stays in: mean 20, floor 1.
	if got := MAPEWithFloor([]float64{1, 39}, []float64{2, 39}); math.Abs(got-50) > 1e-12 {
		t.Errorf("MAPEWithFloor at the floor = %v, want 50", got)
	}
	if MAPEWithFloor(nil, nil) != 0 {
		t.Error("empty MAPEWithFloor should be 0")
	}
}

func TestMAEProperties(t *testing.T) {
	// MAE is non-negative and zero iff predictions match.
	f := func(a, b float64) bool {
		y := []float64{a}
		if MAE(y, y) != 0 {
			return false
		}
		return MAE(y, []float64{b}) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitProportionsAndDisjoint(t *testing.T) {
	train, val, test := Split(100, 0.7, 0.1, 42)
	if len(train) != 70 || len(val) != 10 || len(test) != 20 {
		t.Fatalf("split sizes = %d/%d/%d", len(train), len(val), len(test))
	}
	seen := map[int]bool{}
	for _, set := range [][]int{train, val, test} {
		for _, i := range set {
			if seen[i] {
				t.Fatalf("index %d appears twice", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != 100 {
		t.Errorf("split covers %d of 100", len(seen))
	}
	// Deterministic.
	train2, _, _ := Split(100, 0.7, 0.1, 42)
	for i := range train {
		if train[i] != train2[i] {
			t.Fatal("split not deterministic")
		}
	}
	// Different seed shuffles differently.
	train3, _, _ := Split(100, 0.7, 0.1, 43)
	same := true
	for i := range train {
		if train[i] != train3[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds gave identical splits")
	}
}

func TestSplitEdgeCases(t *testing.T) {
	train, val, test := Split(3, 1.0, 0.5, 1)
	if len(train) != 3 || len(val) != 0 || len(test) != 0 {
		t.Errorf("overfull split = %d/%d/%d", len(train), len(val), len(test))
	}
	train, val, test = Split(0, 0.7, 0.1, 1)
	if len(train)+len(val)+len(test) != 0 {
		t.Error("empty split should be empty")
	}
}

func TestRatios(t *testing.T) {
	if got := UtilityRatio(12, 100); got != 12 {
		t.Errorf("UtilityRatio = %v", got)
	}
	if UtilityRatio(5, 0) != 0 {
		t.Error("zero-cost ratio should be 0")
	}
	if got := SavedCostRatio(20, 5, 100); got != 15 {
		t.Errorf("SavedCostRatio = %v, want 15", got)
	}
	if got := Improvement(12.02, 9.36); math.Abs(got-28.4) > 0.1 {
		t.Errorf("Improvement = %v, want ≈28.4 (the paper's headline)", got)
	}
	if Improvement(1, 0) != 0 {
		t.Error("zero baseline improvement should be 0")
	}
}
