package mvs

import (
	"math/rand"
	"testing"
)

func TestLocalSearchMatchesOptimumOnSmallInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		in := randomInstance(rng, 3+rng.Intn(20), 3+rng.Intn(10))
		opt := OptimalExact(in, 0)
		ls := LocalSearch(in, LocalSearchOptions{Rand: rand.New(rand.NewSource(7))})
		// With the greedy-seeded restart plus three random restarts the
		// climber reaches the exact optimum on every one of these seeded
		// instances; pinning equality (not just a gap bound) makes any
		// future quality regression loud.
		if ls.BestUtility < opt.Utility-1e-9 {
			t.Errorf("trial %d: local search %v below optimum %v", trial, ls.BestUtility, opt.Utility)
		}
		if ls.BestUtility > opt.Utility+1e-9 {
			t.Errorf("trial %d: local search %v above optimum %v (accounting bug)", trial, ls.BestUtility, opt.Utility)
		}
		if !in.Feasible(ls.Best) {
			t.Errorf("trial %d: infeasible state", trial)
		}
		if u := in.Utility(ls.Best); u != ls.BestUtility {
			t.Errorf("trial %d: reported utility %v != recomputed %v", trial, ls.BestUtility, u)
		}
	}
}

func TestLocalSearchAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	in := randomInstance(rng, 15, 9)
	res := LocalSearch(in, LocalSearchOptions{Rand: rand.New(rand.NewSource(3))})
	if res.Moves != len(res.Trace) {
		t.Errorf("moves %d != trace length %d", res.Moves, len(res.Trace))
	}
	if res.Evaluations < res.Moves {
		t.Errorf("evaluations %d below accepted moves %d", res.Evaluations, res.Moves)
	}
	sel := SelectedViews(res.Best.Z)
	for i := 1; i < len(sel); i++ {
		if sel[i] <= sel[i-1] {
			t.Fatalf("selection not strictly ascending: %v", sel)
		}
	}
	if res.BestRestart < 0 || res.BestRestart >= 4 {
		t.Errorf("best restart %d outside schedule", res.BestRestart)
	}
}

func TestLocalSearchEmptyAndDegenerate(t *testing.T) {
	// No views at all.
	empty := &Instance{Benefit: [][]float64{}, Overhead: nil, Overlap: [][]bool{}}
	res := LocalSearch(empty, LocalSearchOptions{})
	if res.BestUtility != 0 || len(res.Best.Z) != 0 {
		t.Errorf("empty instance: %+v", res)
	}

	// Views nobody benefits from: the empty selection is optimal.
	useless := &Instance{
		Benefit:  [][]float64{{0, -1}, {-2, 0}},
		Overhead: []float64{1, 1},
		Overlap:  [][]bool{{false, false}, {false, false}},
	}
	res = LocalSearch(useless, LocalSearchOptions{})
	if res.BestUtility != 0 || len(SelectedViews(res.Best.Z)) != 0 {
		t.Errorf("useless views selected: %+v", SelectedViews(res.Best.Z))
	}

	// A single profitable view must be found.
	one := &Instance{
		Benefit:  [][]float64{{5}},
		Overhead: []float64{1},
		Overlap:  [][]bool{{false}},
	}
	res = LocalSearch(one, LocalSearchOptions{})
	if res.BestUtility != 4 {
		t.Errorf("single view: utility %v, want 4", res.BestUtility)
	}
}

func TestSelectedViewsAndOverhead(t *testing.T) {
	z := []bool{true, false, true, true, false}
	got := SelectedViews(z)
	want := []int{0, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("SelectedViews = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SelectedViews = %v, want %v", got, want)
		}
	}
	in := &Instance{Overhead: []float64{1, 2, 4, 8, 16}}
	if o := in.SelectionOverhead(z); o != 13 {
		t.Errorf("SelectionOverhead = %v, want 13", o)
	}
	if got := SelectedViews(make([]bool, 3)); got != nil {
		t.Errorf("empty selection should be nil, got %v", got)
	}
}
