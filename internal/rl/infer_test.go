package rl

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"autoview/internal/mvs"
	"autoview/internal/nn"
)

// TestMLPInferParity pins the forward-only path: the Q-network's
// InferBatch must return exactly what its Forward returns for every
// action of a batch — one 120-action state and its first actions alone —
// and again on a reused arena.
func TestMLPInferParity(t *testing.T) {
	q := newQNet(rand.New(rand.NewSource(11)))
	a := nn.NewArena()
	feats := randomFeats(rand.New(rand.NewSource(12)), 120)
	want := make([]float64, len(feats))
	for j, f := range feats {
		want[j] = forwardQ(q, f)
	}
	for _, n := range []int{120, 1, 2, 9} {
		for round := 0; round < 2; round++ {
			got := make([]float64, n)
			a.Reset()
			q.InferBatch(got, feats[:n], a)
			for j := range got {
				if got[j] != want[j] { // bit-identity is the property under test
					t.Fatalf("n=%d round %d: InferBatch[%d] = %v, Forward = %v", n, round, j, got[j], want[j])
				}
			}
		}
	}
}

// forwardQ is Q(e,a) through the training (tape) forward.
func forwardQ(net *nn.MLP, feat []float64) float64 {
	y, _ := net.Forward(feat)
	return y[0]
}

// onlineQ is Q(e,a) of one action through the agent's scoring path.
func onlineQ(a *Agent, feat []float64) float64 {
	return a.QValues([][]float64{feat})[0]
}

// targetQ is the Learn bootstrap value of one action.
func targetQ(a *Agent, feat []float64) float64 {
	_, q := a.maxQ(a.bootstrapNet(), [][]float64{feat}, nil)
	return q
}

// TestAgentScoringBitIdenticalToForward cross-checks the agent's whole
// forward-only surface — QValues one action at a time and over the
// whole state, BestAction and the Learn bootstrap
// (maxQ over the bootstrap network: each action's value and the sweep's
// maximum) — against direct Forward evaluation with ==, with and
// without a frozen target network, before and after a Learn step moves
// the weights (nothing may be cached across an update).
func TestAgentScoringBitIdenticalToForward(t *testing.T) {
	for _, cfg := range []AgentConfig{
		{Seed: 5},
		{Seed: 5, TargetSync: 100},
	} {
		ag := NewAgent(cfg, nil)
		feats := randomFeats(rand.New(rand.NewSource(6)), 9)
		ag.Remember(Experience{Taken: feats[2], Reward: 1, NextState: feats})
		for _, phase := range []string{"initial", "after Learn"} {
			bootstrap := ag.Net
			if ag.target != nil {
				bootstrap = ag.target
			}
			qv := ag.QValues(feats)
			bestJ, bestQ, bestT := 0, 0.0, math.Inf(-1)
			for j, f := range feats {
				want := forwardQ(ag.Net, f)
				if j == 0 || want > bestQ {
					bestJ, bestQ = j, want
				}
				if got := onlineQ(ag, f); got != want { // bit-identity is the property under test
					t.Fatalf("%+v %s: onlineQ(%d) = %v, Forward = %v", cfg, phase, j, got, want)
				}
				if qv[j] != want { // bit-identity is the property under test
					t.Fatalf("%+v %s: QValues[%d] = %v, Forward = %v", cfg, phase, j, qv[j], want)
				}
				wantT := forwardQ(bootstrap, f)
				if got := targetQ(ag, f); got != wantT { // bit-identity is the property under test
					t.Fatalf("%+v %s: targetQ(%d) = %v, Forward = %v", cfg, phase, j, got, wantT)
				}
				bestT = math.Max(bestT, wantT)
			}
			if _, got := ag.maxQ(bootstrap, feats, nil); got != bestT { // bit-identity is the property under test
				t.Fatalf("%+v %s: bootstrap max = %v, want %v", cfg, phase, got, bestT)
			}
			if got := ag.BestAction(feats); got != bestJ {
				t.Fatalf("%+v %s: BestAction = %d, want %d (q=%v)", cfg, phase, got, bestJ, bestQ)
			}
			ag.Learn()
		}
	}
}

// randomFeats builds n random per-action feature rows.
func randomFeats(rng *rand.Rand, n int) [][]float64 {
	feats := make([][]float64, n)
	for j := range feats {
		feats[j] = make([]float64, FeatureDim)
		for i := range feats[j] {
			feats[j][i] = rng.NormFloat64()
		}
	}
	return feats
}

// TestScoringFanOutBitIdentical: QValues and BestAction split the rows
// over Cfg.Parallelism workers; at every worker count and row count
// (fewer rows than workers, rows that do not divide evenly, the
// benchmark's |Z|) they must equal a direct Forward sweep with ==, and
// an exact tie — the best row copied to both ends, so the copies land in
// different workers' chunks — must go to the lowest index.
func TestScoringFanOutBitIdentical(t *testing.T) {
	for _, p := range []int{1, 2, 8} {
		for _, n := range []int{1, 3, 124} {
			ag := NewAgent(AgentConfig{Seed: 5, Parallelism: p}, nil)
			feats := randomFeats(rand.New(rand.NewSource(int64(n))), n)
			for _, tie := range []bool{false, true} {
				want := make([]float64, n)
				best := 0
				for j, f := range feats {
					want[j] = forwardQ(ag.Net, f)
					if want[j] > want[best] {
						best = j
					}
				}
				got := ag.QValues(feats)
				for j := range want {
					if got[j] != want[j] { // bit-identity is the property under test
						t.Fatalf("P=%d n=%d tie=%v: QValues[%d] = %v, Forward = %v", p, n, tie, j, got[j], want[j])
					}
				}
				if got := ag.BestAction(feats); got != best {
					t.Fatalf("P=%d n=%d tie=%v: BestAction = %d, want %d", p, n, tie, got, best)
				}
				feats[0], feats[n-1] = feats[best], feats[best]
			}
		}
	}
}

// TestQValuesAllocs pins the scoring cost model. Serially, once the
// pooled arena is warm, QValues allocates its result slice and
// BestAction (which keeps its score buffer) nothing. Fanned out, both
// pay the goroutines of one fan-out and nothing per action: the count
// is the same for 8, 64 and 124 actions.
func TestQValuesAllocs(t *testing.T) {
	for _, p := range []int{1, 4} {
		ag := NewAgent(AgentConfig{Seed: 5, Parallelism: p}, nil)
		var firstQ, firstBest float64
		for k, n := range []int{8, 64, 124} {
			feats := randomFeats(rand.New(rand.NewSource(3)), n)
			ag.QValues(feats) // warm the arenas
			ag.BestAction(feats)
			q := testing.AllocsPerRun(100, func() { ag.QValues(feats) })
			best := testing.AllocsPerRun(100, func() { ag.BestAction(feats) })
			if k == 0 {
				firstQ, firstBest = q, best
			}
			if p == 1 && (q != 1 || best != 0) {
				t.Fatalf("n=%d: serial warm QValues allocates %v allocs/op, want 1 (the result slice); BestAction %v, want 0", n, q, best)
			}
			if q != firstQ || best != firstBest { // allocation counts are whole numbers
				t.Fatalf("P=%d: QValues/BestAction allocate %v/%v for %d actions but %v/%v for 8", p, q, best, n, firstQ, firstBest)
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
	next := feats[1][0]
	if _ = append(feats[0], next+1); feats[1][0] != next { // the neighbour must be untouched
		t.Fatalf("append to row 0 wrote into row 1 (%v -> %v)", next, feats[1][0])
	}
	if allocs := testing.AllocsPerRun(100, func() { Features(in, st, bcur, bmax, 1, 1) }); allocs != 2 {
		t.Fatalf("Features allocates %v times for %d actions, want 2", allocs, in.NumViews())
	}
}

// BenchmarkQValues is one greedy sweep over the wk1 instance's 124
// actions (bench's rl.qvalues_us row), serially and fanned out over two
// workers.
func BenchmarkQValues(b *testing.B) {
	for _, p := range []int{1, 2} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			ag := NewAgent(AgentConfig{Seed: 5, Parallelism: p}, nil)
			feats := randomFeats(rand.New(rand.NewSource(3)), 124)
			b.ReportAllocs()
			for b.Loop() {
				ag.QValues(feats)
			}
		})
	}
}
