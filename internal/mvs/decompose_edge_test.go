package mvs

import (
	"math/rand"
	"testing"
)

// TestDecomposeEdgeCases drives OptimalExact through the degenerate
// windows the advisor can hand it, against hand-computed optima: empty
// windows, single-query windows, and node budgets at both extremes.
func TestDecomposeEdgeCases(t *testing.T) {
	single := &Instance{
		Benefit:  [][]float64{{4, 3, 2}},
		Overhead: []float64{1, 1, 1},
		Overlap: [][]bool{
			{false, true, false},
			{true, false, false},
			{false, false, false},
		},
	}

	cases := []struct {
		name       string
		in         *Instance
		nodeBudget int
		want       float64
		optimal    bool
	}{
		{
			name: "empty-window",
			in:   &Instance{Benefit: [][]float64{}, Overhead: nil, Overlap: [][]bool{}},
			want: 0, optimal: true,
		},
		{
			name: "no-queries-some-views",
			in: &Instance{
				Benefit:  [][]float64{},
				Overhead: []float64{2, 3},
				Overlap:  [][]bool{{false, false}, {false, false}},
			},
			want: 0, optimal: true,
		},
		{
			// Views 0 and 1 overlap: the query uses view 0 (benefit 4)
			// and view 2 (benefit 2); view 1 is dominated.
			name: "single-query-window",
			in:   single,
			want: (4 - 1) + (2 - 1), optimal: true,
		},
		{
			name: "single-query-huge-budget",
			in:   single, nodeBudget: 1 << 30,
			want: 4, optimal: true,
		},
		{
			// A one-node budget per component still solves trivial
			// components but must not claim optimality when it cannot.
			name: "single-query-one-node-budget",
			in:   single, nodeBudget: 1,
			optimal: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := OptimalExact(tc.in, tc.nodeBudget)
			if res.Optimal != tc.optimal {
				t.Fatalf("Optimal = %v, want %v", res.Optimal, tc.optimal)
			}
			if tc.optimal && res.Utility != tc.want {
				t.Errorf("utility %v, want %v", res.Utility, tc.want)
			}
			if !tc.in.Feasible(res.State) {
				t.Errorf("infeasible state")
			}
		})
	}
}

// TestDecomposeBudgetSemantics pins the storage-budget edge cases on the
// budgeted selector: budget 0 (unbounded by convention), and budget ≥ the
// total overhead, which must match the unbounded optimum exactly.
func TestDecomposeBudgetSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	in := randomInstance(rng, 8, 6)
	var total float64
	for _, o := range in.Overhead {
		total += o
	}
	opt := OptimalExact(in, 0)
	zero := LocalSearch(in, LocalSearchOptions{Budget: 0, Rand: rand.New(rand.NewSource(5))})
	if zero.BestUtility != opt.Utility {
		t.Errorf("budget 0 (unbounded): %v != optimum %v", zero.BestUtility, opt.Utility)
	}
	ge := LocalSearch(in, LocalSearchOptions{Budget: total + 1, Rand: rand.New(rand.NewSource(5))})
	if ge.BestUtility != opt.Utility {
		t.Errorf("budget ≥ total: %v != optimum %v", ge.BestUtility, opt.Utility)
	}
}
