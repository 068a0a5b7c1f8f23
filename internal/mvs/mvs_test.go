package mvs

import (
	"math"
	"math/rand"
	"testing"
)

// randomInstance builds a small random MVS instance.
func randomInstance(rng *rand.Rand, nq, nv int) *Instance {
	in := &Instance{
		Benefit:  make([][]float64, nq),
		Overhead: make([]float64, nv),
		Overlap:  make([][]bool, nv),
	}
	for j := 0; j < nv; j++ {
		in.Overhead[j] = rng.Float64()*2 + 0.1
		in.Overlap[j] = make([]bool, nv)
	}
	for j := 0; j < nv; j++ {
		for k := j + 1; k < nv; k++ {
			if rng.Float64() < 0.25 {
				in.Overlap[j][k] = true
				in.Overlap[k][j] = true
			}
		}
	}
	for i := 0; i < nq; i++ {
		in.Benefit[i] = make([]float64, nv)
		for j := 0; j < nv; j++ {
			if rng.Float64() < 0.5 {
				in.Benefit[i][j] = rng.Float64() * 3
			}
		}
	}
	return in
}

// bruteForceOpt enumerates all (Z, best-Y) assignments.
func bruteForceOpt(in *Instance) float64 {
	nv := in.NumViews()
	best := 0.0
	for mask := 0; mask < 1<<nv; mask++ {
		z := make([]bool, nv)
		for j := 0; j < nv; j++ {
			z[j] = mask&(1<<j) != 0
		}
		if u := in.UtilityOfZ(z); u > best {
			best = u
		}
	}
	return best
}

func TestValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := randomInstance(rng, 3, 4)
	if err := in.Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
	bad := randomInstance(rng, 3, 4)
	bad.Overlap[1][2] = true
	bad.Overlap[2][1] = false
	if err := bad.Validate(); err == nil {
		t.Error("asymmetric overlap accepted")
	}
	bad2 := randomInstance(rng, 3, 4)
	bad2.Overlap[0][0] = true
	if err := bad2.Validate(); err == nil {
		t.Error("true diagonal accepted")
	}
	bad3 := randomInstance(rng, 3, 4)
	bad3.Benefit[0] = bad3.Benefit[0][:2]
	if err := bad3.Validate(); err == nil {
		t.Error("ragged benefit accepted")
	}
}

func TestUtilityAndFeasible(t *testing.T) {
	in := &Instance{
		Benefit:  [][]float64{{5, 3}, {2, 4}},
		Overhead: []float64{1, 2},
		Overlap:  [][]bool{{false, true}, {true, false}},
	}
	s := NewState(in)
	s.Z[0] = true
	s.Y[0][0] = true
	s.Y[1][0] = true
	if !in.Feasible(s) {
		t.Fatal("state should be feasible")
	}
	if got := in.Utility(s); got != 5+2-1 {
		t.Errorf("utility = %v, want 6", got)
	}
	// Using an unmaterialized view is infeasible.
	s.Y[0][1] = true
	if in.Feasible(s) {
		t.Error("y without z accepted")
	}
	s.Z[1] = true
	// Now both views are used for q0 but they overlap.
	if in.Feasible(s) {
		t.Error("overlapping pair accepted")
	}
}

func TestBestYIsOptimalPerQuery(t *testing.T) {
	in := &Instance{
		Benefit:  [][]float64{{5, 4, 2}},
		Overhead: []float64{1, 1, 1},
		Overlap: [][]bool{
			{false, true, false},
			{true, false, false},
			{false, false, false},
		},
	}
	z := []bool{true, true, true}
	y, bcur := in.BestY(z)
	// Views 0 and 1 conflict: best is {0, 2} worth 7.
	if !y[0][0] || y[0][1] || !y[0][2] {
		t.Errorf("BestY row = %v", y[0])
	}
	if bcur[0] != 5 || bcur[1] != 0 || bcur[2] != 2 {
		t.Errorf("bcur = %v", bcur)
	}
	if u := in.UtilityOfZ(z); u != 7-3 {
		t.Errorf("UtilityOfZ = %v, want 4", u)
	}
}

func TestOptimalAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		in := randomInstance(rng, 2+rng.Intn(5), 2+rng.Intn(7))
		want := bruteForceOpt(in)
		res := branchAndBound(in, 0)
		if !res.Optimal {
			t.Fatalf("trial %d: budget exhausted unexpectedly", trial)
		}
		if math.Abs(res.Utility-want) > 1e-9 {
			t.Fatalf("trial %d: branchAndBound %v, brute force %v", trial, res.Utility, want)
		}
		if !in.Feasible(res.State) {
			t.Fatalf("trial %d: optimal state infeasible", trial)
		}
		if math.Abs(in.Utility(res.State)-res.Utility) > 1e-9 {
			t.Fatalf("trial %d: reported utility mismatches state", trial)
		}
	}
}

func TestOptimalBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	in := randomInstance(rng, 10, 14)
	res := branchAndBound(in, 3)
	if res.Optimal {
		t.Error("3-node budget cannot prove optimality for 14 views")
	}
	// Incumbent must still be feasible.
	if !in.Feasible(res.State) {
		t.Error("incumbent infeasible")
	}
}

func TestIterViewProducesFeasibleStatesAndTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := randomInstance(rng, 8, 10)
	res := IterView(in, IterOptions{Iterations: 30, Rand: rand.New(rand.NewSource(8))})
	if len(res.Trace) != 31 { // initial state + 30 iterations
		t.Fatalf("trace length %d, want 31", len(res.Trace))
	}
	if !in.Feasible(res.Final) {
		t.Error("final state infeasible")
	}
	if !in.Feasible(res.Best) {
		t.Error("best state infeasible")
	}
	if math.Abs(in.Utility(res.Best)-res.BestUtility) > 1e-9 {
		t.Error("BestUtility mismatches Best state")
	}
	// Best must dominate every traced utility.
	for i, u := range res.Trace {
		if u > res.BestUtility+1e-9 {
			t.Errorf("trace[%d]=%v exceeds best %v", i, u, res.BestUtility)
		}
	}
}

func TestIterViewApproachesOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in := randomInstance(rng, 10, 8)
	opt := branchAndBound(in, 0)
	res := IterView(in, IterOptions{Iterations: 200, Rand: rand.New(rand.NewSource(10))})
	if res.BestUtility > opt.Utility+1e-9 {
		t.Fatalf("IterView best %v exceeds optimum %v", res.BestUtility, opt.Utility)
	}
	if res.BestUtility < 0.5*opt.Utility {
		t.Errorf("IterView best %v is far below optimum %v", res.BestUtility, opt.Utility)
	}
}

func TestIterViewFreezeForbidsDeselection(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := randomInstance(rng, 6, 8)
	res := IterView(in, IterOptions{Iterations: 50, FreezeAfter: 10, Rand: rand.New(rand.NewSource(12))})
	// After freezing, the number of selected views never decreases; we
	// can't observe intermediate states directly, but the run must stay
	// feasible and the trace full-length.
	if len(res.Trace) != 51 {
		t.Fatalf("trace length %d", len(res.Trace))
	}
	if !in.Feasible(res.Final) {
		t.Error("final state infeasible under freeze")
	}
}

func TestIterViewOscillatesWithoutFreeze(t *testing.T) {
	// The paper's motivation for RLView: IterView keeps oscillating.
	// Verify the trace is not monotonically convergent on a workload
	// with strongly conflicting choices.
	rng := rand.New(rand.NewSource(13))
	in := randomInstance(rng, 20, 15)
	res := IterView(in, IterOptions{Iterations: 150, Rand: rand.New(rand.NewSource(14))})
	drops := 0
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i] < res.Trace[i-1]-1e-9 {
			drops++
		}
	}
	if drops == 0 {
		t.Error("expected utility oscillation (some decreasing steps), found none")
	}
}

func TestFlipProbabilityGuards(t *testing.T) {
	// Zero denominators must not produce NaN or values outside [0,1].
	cases := []struct {
		oj, bmaxj, bcurj           float64
		z                          bool
		ocur, omax, bcurSum, bmaxS float64
	}{
		{1, 0, 0, true, 0, 0, 0, 0},
		{1, 5, 1, false, 0, 0, 0, 0},
		{0, 5, 0, false, 3, 10, 2, 9},
		{2, 0, 0, true, 2, 10, 0, 0},
	}
	for i, c := range cases {
		p := flipProbability(c.oj, c.bmaxj, c.bcurj, c.z, c.ocur, c.omax, c.bcurSum, c.bmaxS)
		if math.IsNaN(p) || p < 0 || p > 1 {
			t.Errorf("case %d: p = %v", i, p)
		}
	}
}

func TestStateClone(t *testing.T) {
	in := randomInstance(rand.New(rand.NewSource(15)), 2, 3)
	s := NewState(in)
	s.Z[0] = true
	s.Y[1][2] = true
	c := s.Clone()
	c.Z[0] = false
	c.Y[1][2] = false
	if !s.Z[0] || !s.Y[1][2] {
		t.Error("Clone shares storage")
	}
}
