package selbase

import (
	"math/rand"
	"testing"

	"autoview/internal/mvs"
)

func smallInstance() *mvs.Instance {
	// Three views: v0 cheap & beneficial, v1 expensive & beneficial,
	// v2 cheap & useless. v0 and v1 overlap.
	return &mvs.Instance{
		Benefit: [][]float64{
			{5, 6, 0},
			{4, 2, 0},
			{0, 3, 0.1},
		},
		Overhead: []float64{1, 8, 0.5},
		Overlap: [][]bool{
			{false, true, false},
			{true, false, false},
			{false, false, false},
		},
	}
}

func randomInstance(rng *rand.Rand, nq, nv int) *mvs.Instance {
	in := &mvs.Instance{
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
			if rng.Float64() < 0.2 {
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

func TestStrategyNames(t *testing.T) {
	want := []string{"TopkFreq", "TopkOver", "TopkBen", "TopkNorm"}
	for i, s := range Strategies() {
		if s.String() != want[i] {
			t.Errorf("strategy %d = %s, want %s", i, s, want[i])
		}
	}
}

func TestRankingOrders(t *testing.T) {
	in := smallInstance()
	freq := []int{3, 1, 9}
	if r := Ranking(in, freq, TopkFreq); r[0] != 2 || r[1] != 0 || r[2] != 1 {
		t.Errorf("TopkFreq ranking = %v", r)
	}
	// Bigger overhead, lower rank.
	if r := Ranking(in, nil, TopkOver); r[0] != 2 || r[2] != 1 {
		t.Errorf("TopkOver ranking = %v", r)
	}
	// Bmax: v1 = 6+2+3 = 11 > v0 = 9 > v2 = 0.1.
	if r := Ranking(in, nil, TopkBen); r[0] != 1 || r[1] != 0 || r[2] != 2 {
		t.Errorf("TopkBen ranking = %v", r)
	}
	// Norm: v0 (9-1)/1 = 8 > v1 (11-8)/8 = 0.375 > v2 (0.1-0.5)/0.5 < 0.
	if r := Ranking(in, nil, TopkNorm); r[0] != 0 {
		t.Errorf("TopkNorm ranking = %v", r)
	}
}

func TestSweepKShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := randomInstance(rng, 12, 9)
	for _, s := range Strategies() {
		freq := make([]int, 9)
		for j := range freq {
			freq[j] = rng.Intn(10)
		}
		curve := SweepK(in, freq, s)
		if len(curve) != 10 {
			t.Fatalf("%s: curve length %d, want 10", s, len(curve))
		}
		if curve[0] != 0 {
			t.Errorf("%s: k=0 utility = %v, want 0", s, curve[0])
		}
		// The paper's observation: curves rise then fall. At minimum the
		// maximum must not be at k=0 for a workload with real benefit.
		bestK, bestU := BestK(in, freq, s)
		if bestU < curve[0] {
			t.Errorf("%s: best %v below empty-set utility", s, bestU)
		}
		if bestK < 0 || bestK > 9 {
			t.Errorf("%s: bestK = %d out of range", s, bestK)
		}
		if curve[bestK] != bestU {
			t.Errorf("%s: BestK inconsistent with curve", s)
		}
	}
}

func TestGreedyNeverBeatsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		in := randomInstance(rng, 8, 7)
		opt := mvs.OptimalExact(in, 0)
		freq := make([]int, 7)
		for j := range freq {
			freq[j] = rng.Intn(5)
		}
		for _, s := range Strategies() {
			_, u := BestK(in, freq, s)
			if u > opt.Utility+1e-9 {
				t.Errorf("trial %d: %s utility %v exceeds optimum %v", trial, s, u, opt.Utility)
			}
		}
	}
}

func TestBigSubConvergesAndFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := randomInstance(rng, 15, 10)
	res := BigSub(in, BigSubOptions{Iterations: 60, Rand: rand.New(rand.NewSource(4))})
	if len(res.Trace) != 61 {
		t.Fatalf("trace length %d", len(res.Trace))
	}
	if !in.Feasible(res.Final) || !in.Feasible(res.Best) {
		t.Error("BigSub produced infeasible states")
	}
	// After the freeze point (iteration 30), the set of selected views
	// only grows, so late-trace utilities should settle: the last ten
	// entries must not oscillate wildly compared to the first ten
	// post-random-init entries.
	if res.BestUtility <= 0 {
		t.Errorf("BigSub best utility %v, want positive on a random instance", res.BestUtility)
	}
}

func TestBigSubDefaultFreeze(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := randomInstance(rng, 5, 5)
	res := BigSub(in, BigSubOptions{Iterations: 10, Rand: rng})
	if res.Final == nil {
		t.Fatal("no final state")
	}
}
