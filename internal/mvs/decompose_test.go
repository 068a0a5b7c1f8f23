package mvs

import (
	"math"
	"math/rand"
	"testing"
)

func TestOptimalExactMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		in := randomInstance(rng, 2+rng.Intn(6), 2+rng.Intn(8))
		want := bruteForceOpt(in)
		res := OptimalExact(in, 0)
		if !res.Optimal {
			t.Fatalf("trial %d: budget exhausted unexpectedly", trial)
		}
		if math.Abs(res.Utility-want) > 1e-9 {
			t.Fatalf("trial %d: OptimalExact %v, brute force %v", trial, res.Utility, want)
		}
		if !in.Feasible(res.State) {
			t.Fatalf("trial %d: state infeasible", trial)
		}
		if math.Abs(in.Utility(res.State)-res.Utility) > 1e-9 {
			t.Fatalf("trial %d: state utility %v != reported %v", trial, in.Utility(res.State), res.Utility)
		}
	}
}

func TestOptimalExactAgreesWithOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 20; trial++ {
		in := randomInstance(rng, 10, 10)
		a := branchAndBound(in, 0)
		b := OptimalExact(in, 0)
		if !a.Optimal || !b.Optimal {
			t.Fatal("both solvers should finish on small instances")
		}
		if math.Abs(a.Utility-b.Utility) > 1e-9 {
			t.Fatalf("trial %d: branchAndBound %v != OptimalExact %v", trial, a.Utility, b.Utility)
		}
	}
}

func TestOptimalExactDominanceDropsUselessViews(t *testing.T) {
	// One view with overhead above any possible benefit must stay out.
	in := &Instance{
		Benefit:  [][]float64{{1, 3}},
		Overhead: []float64{5, 1},
		Overlap:  [][]bool{{false, false}, {false, false}},
	}
	res := OptimalExact(in, 0)
	if res.State.Z[0] {
		t.Error("dominated view selected")
	}
	if !res.State.Z[1] || res.Utility != 2 {
		t.Errorf("utility = %v, want 2", res.Utility)
	}
}

func TestProjectSubInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	in := randomInstance(rng, 10, 8)

	// Full projection preserves the optimum.
	all := make([]int, in.NumViews())
	for j := range all {
		all[j] = j
	}
	sub, kept := Project(in, all)
	if sub.NumViews() != in.NumViews() {
		t.Fatalf("full projection dropped views: %d != %d", sub.NumViews(), in.NumViews())
	}
	full := OptimalExact(in, 0)
	proj := OptimalExact(sub, 0)
	// Queries with no applicable view are dropped by Project, but they
	// contribute nothing, so the optima agree.
	if math.Abs(full.Utility-proj.Utility) > 1e-9 {
		t.Errorf("full projection optimum %v != original %v", proj.Utility, full.Utility)
	}

	// A strict subset: every kept query must benefit from some member,
	// and the sub-optimum can never exceed the full optimum.
	members := []int{1, 3, 4, 6}
	sub, kept = Project(in, members)
	if sub.NumViews() != len(members) {
		t.Fatalf("projection has %d views, want %d", sub.NumViews(), len(members))
	}
	for si, qi := range kept {
		any := false
		for mj, j := range members {
			if in.Benefit[qi][j] != sub.Benefit[si][mj] {
				t.Fatalf("benefit mismatch at kept query %d view %d", qi, j)
			}
			if sub.Benefit[si][mj] > 0 {
				any = true
			}
		}
		if !any {
			t.Errorf("kept query %d benefits from no member", qi)
		}
	}
	if sup := OptimalExact(sub, 0); sup.Utility > full.Utility+1e-9 {
		t.Errorf("sub-instance optimum %v exceeds full optimum %v", sup.Utility, full.Utility)
	}
}
