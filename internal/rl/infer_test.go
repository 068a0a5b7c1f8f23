package rl

import (
	"math"
	"math/rand"
	"testing"

	"autoview/internal/mvs"
	"autoview/internal/nn"
)

// TestQNetworkInferParity pins the forward-only path: Infer must
// return exactly what Forward returns, for both architectures, across
// many random inputs and with a reused arena.
func TestQNetworkInferParity(t *testing.T) {
	nets := map[string]func(*rand.Rand) QNetwork{
		"mlp":     NewMLPQ,
		"dueling": NewDuelingQ,
	}
	for _, name := range []string{"mlp", "dueling"} {
		q := nets[name](rand.New(rand.NewSource(11)))
		a := nn.NewArena()
		rng := rand.New(rand.NewSource(12))
		for trial := 0; trial < 120; trial++ {
			feat := make(nn.Vec, FeatureDim)
			for i := range feat {
				feat[i] = rng.NormFloat64()
			}
			want, _ := q.Forward(feat)
			a.Reset()
			got := q.Infer(feat, a)
			if got != want { //lint:allow floateq bit-identity is the property under test
				t.Fatalf("%s trial %d: Infer = %v, Forward = %v", name, trial, got, want)
			}
			a.Reset()
			if again := q.Infer(feat, a); again != got { //lint:allow floateq bit-identity is the property under test
				t.Fatalf("%s trial %d: warm-arena Infer drifted: %v != %v", name, trial, again, got)
			}
		}
	}
}

// targetQ is the Learn bootstrap value of one action.
func targetQ(a *Agent, feat []float64) float64 {
	_, q := a.maxQ(a.bootstrapNet(), [][]float64{feat}, nil)
	return q
}

// TestAgentScoringBitIdenticalToForward cross-checks the agent's whole
// forward-only surface — Q, QValues, BestAction and the Learn bootstrap
// (maxQ over the bootstrap network: each action's value and the sweep's
// maximum) — against direct Forward evaluation with ==, for both
// architectures, with and without a frozen target network, before and
// after a Learn step moves the weights (nothing may be cached across
// an update).
func TestAgentScoringBitIdenticalToForward(t *testing.T) {
	for _, cfg := range []AgentConfig{
		{Seed: 5},
		{Seed: 5, Dueling: true},
		{Seed: 5, TargetSync: 100},
		{Seed: 5, Dueling: true, TargetSync: 100},
	} {
		ag := NewAgent(cfg, nil)
		rng := rand.New(rand.NewSource(6))
		feats := make([][]float64, 9)
		for j := range feats {
			feats[j] = make([]float64, FeatureDim)
			for i := range feats[j] {
				feats[j][i] = rng.NormFloat64()
			}
		}
		ag.Remember(Experience{State: feats, Action: 2, Reward: 1, NextState: feats})
		for _, phase := range []string{"initial", "after Learn"} {
			bootstrap := ag.QNet
			if ag.target != nil {
				bootstrap = ag.target
			}
			qv := ag.QValues(feats)
			bestJ, bestQ, bestT := 0, 0.0, math.Inf(-1)
			for j, f := range feats {
				want, _ := ag.QNet.Forward(f)
				if j == 0 || want > bestQ {
					bestJ, bestQ = j, want
				}
				if got := ag.Q(f); got != want { //lint:allow floateq bit-identity is the property under test
					t.Fatalf("%+v %s: Q(%d) = %v, Forward = %v", cfg, phase, j, got, want)
				}
				if qv[j] != want { //lint:allow floateq bit-identity is the property under test
					t.Fatalf("%+v %s: QValues[%d] = %v, Forward = %v", cfg, phase, j, qv[j], want)
				}
				wantT, _ := bootstrap.Forward(f)
				if got := targetQ(ag, f); got != wantT { //lint:allow floateq bit-identity is the property under test
					t.Fatalf("%+v %s: targetQ(%d) = %v, Forward = %v", cfg, phase, j, got, wantT)
				}
				bestT = math.Max(bestT, wantT)
			}
			if _, got := ag.maxQ(bootstrap, feats, nil); got != bestT { //lint:allow floateq bit-identity is the property under test
				t.Fatalf("%+v %s: bootstrap max = %v, want %v", cfg, phase, got, bestT)
			}
			if got := ag.BestAction(feats); got != bestJ {
				t.Fatalf("%+v %s: BestAction = %d, want %d (q=%v)", cfg, phase, got, bestJ, bestQ)
			}
			ag.Learn()
		}
	}
}

// TestQValuesAllocs pins the scoring cost model: once the pooled arena
// is warm, QValues allocates its result slice and nothing per action.
func TestQValuesAllocs(t *testing.T) {
	for _, dueling := range []bool{false, true} {
		ag := NewAgent(AgentConfig{Dueling: dueling, Seed: 5}, nil)
		for _, n := range []int{8, 64} {
			feats := make([][]float64, n)
			for j := range feats {
				feats[j] = make([]float64, FeatureDim)
				feats[j][j%FeatureDim] = 1
			}
			ag.QValues(feats) // warm the arena
			if allocs := testing.AllocsPerRun(100, func() { ag.QValues(feats) }); allocs != 1 {
				t.Fatalf("dueling=%v n=%d: warm QValues allocates %v allocs/op, want 1 (the result slice)", dueling, n, allocs)
			}
		}
	}
}

// TestFeaturesAllocs: the per-action rows are carved from one backing
// array, so a state costs two allocations however many actions it has
// (it did cost |Z|+1, in every RLView step), and no row can grow into
// the next.
func TestFeaturesAllocs(t *testing.T) {
	in := randomInstance(rand.New(rand.NewSource(9)), 12, 31)
	st := mvs.NewState(in)
	st.Z[0] = true
	_, bcur := in.BestY(st.Z)
	bmax := in.MaxBenefits()
	feats := Features(in, st, bcur, bmax, 1, 1)
	for j, row := range feats {
		if len(row) != FeatureDim || cap(row) != FeatureDim {
			t.Fatalf("row %d: len %d cap %d, want both %d", j, len(row), cap(row), FeatureDim)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { Features(in, st, bcur, bmax, 1, 1) }); allocs != 2 {
		t.Fatalf("Features allocates %v times for %d actions, want 2", allocs, in.NumViews())
	}
}
