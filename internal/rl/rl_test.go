package rl

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"autoview/internal/mvs"
)

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

func TestFeaturesShapeAndBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := randomInstance(rng, 5, 7)
	st := mvs.NewState(in)
	st.Z[0] = true
	st.Z[3] = true
	y, bcur := in.BestY(st.Z)
	st.Y = y
	bmax := in.MaxBenefits()
	var omax, bmaxSum float64
	for _, o := range in.Overhead {
		omax += o
	}
	for _, b := range bmax {
		bmaxSum += b
	}
	feats := Features(in, st, bcur, bmax, omax, bmaxSum)
	if len(feats) != 7 {
		t.Fatalf("want 7 action features, got %d", len(feats))
	}
	for j, f := range feats {
		if len(f) != FeatureDim {
			t.Fatalf("action %d: dim %d, want %d", j, len(f), FeatureDim)
		}
		for k, v := range f {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("action %d feature %d = %v", j, k, v)
			}
		}
		if f[0] != 0 && f[0] != 1 {
			t.Errorf("z feature should be binary, got %v", f[0])
		}
	}
	if feats[0][0] != 1 || feats[1][0] != 0 {
		t.Error("z feature does not reflect state")
	}
}

func TestAgentNetworkShape(t *testing.T) {
	a := NewAgent(AgentConfig{}, rand.New(rand.NewSource(2)))
	// The paper's DQN: four FC layers of 16, 64, 16 and 1 neurons.
	if len(a.Net.Layers) != 4 {
		t.Fatalf("want 4 layers, got %d", len(a.Net.Layers))
	}
	wantOut := []int{16, 64, 16, 1}
	for i, l := range a.Net.Layers {
		if l.OutDim() != wantOut[i] {
			t.Errorf("layer %d out = %d, want %d", i, l.OutDim(), wantOut[i])
		}
	}
	if a.Net.Layers[0].InDim() != FeatureDim {
		t.Errorf("input dim %d, want %d", a.Net.Layers[0].InDim(), FeatureDim)
	}
}

func TestAgentMemoryEviction(t *testing.T) {
	a := NewAgent(AgentConfig{MemoryCap: 5}, rand.New(rand.NewSource(3)))
	for i := 0; i < 12; i++ {
		a.Remember(Experience{Reward: float64(i), Taken: make([]float64, FeatureDim)})
	}
	if a.MemoryLen() != 5 {
		t.Fatalf("memory len %d, want 5", a.MemoryLen())
	}
	if a.Memory()[0].Reward != 7 {
		t.Errorf("oldest surviving reward = %v, want 7", a.Memory()[0].Reward)
	}
}

func TestAgentLearnsSimpleValue(t *testing.T) {
	// Two actions with fixed features: action 0 always yields reward 1,
	// action 1 yields reward 0 (terminal transitions). The learned Q
	// must separate them.
	a := NewAgent(AgentConfig{LearnRate: 0.01, BatchSize: 8}, rand.New(rand.NewSource(4)))
	f0 := make([]float64, FeatureDim)
	f0[0] = 1
	f1 := make([]float64, FeatureDim)
	f1[1] = 1
	state := [][]float64{f0, f1}
	for i := 0; i < 40; i++ {
		a.Remember(Experience{Taken: f0, Reward: 1, NextState: state, Terminal: true})
		a.Remember(Experience{Taken: f1, Reward: 0, NextState: state, Terminal: true})
	}
	for i := 0; i < 300; i++ {
		a.Learn()
	}
	q0, q1 := onlineQ(a, f0), onlineQ(a, f1)
	if q0 < q1+0.3 {
		t.Errorf("Q(a0)=%v should clearly exceed Q(a1)=%v", q0, q1)
	}
	if a.BestAction(state) != 0 {
		t.Error("BestAction should pick the rewarding action")
	}
}

func TestLearnEmptyMemoryIsNoop(t *testing.T) {
	a := NewAgent(AgentConfig{}, rand.New(rand.NewSource(5)))
	if loss := a.Learn(); loss != 0 {
		t.Errorf("Learn on empty memory = %v, want 0", loss)
	}
}

func TestLearnFromRestoresMemory(t *testing.T) {
	a := NewAgent(AgentConfig{BatchSize: 2}, rand.New(rand.NewSource(6)))
	a.Remember(Experience{Taken: make([]float64, FeatureDim), Terminal: true})
	offline := []Experience{
		{Taken: make([]float64, FeatureDim), Reward: 1, Terminal: true},
	}
	a.LearnFrom(offline, 5)
	if a.MemoryLen() != 1 {
		t.Errorf("online memory len %d after LearnFrom, want 1", a.MemoryLen())
	}
}

func TestRLViewFeasibleAndTraced(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := randomInstance(rng, 10, 8)
	res := RLView(in, Options{
		InitIterations: 5,
		Epochs:         10,
		Rand:           rand.New(rand.NewSource(8)),
	})
	if res.Best == nil || res.Final == nil {
		t.Fatal("missing states")
	}
	if !in.Feasible(res.Best) || !in.Feasible(res.Final) {
		t.Error("RLView produced infeasible state")
	}
	if math.Abs(in.Utility(res.Best)-res.BestUtility) > 1e-9 {
		t.Error("BestUtility inconsistent")
	}
	if res.Steps == 0 || len(res.Trace) < res.Steps {
		t.Errorf("steps=%d trace=%d", res.Steps, len(res.Trace))
	}
	// Each episode runs at least |Z| steps (Algorithm 2's while
	// condition), so 10 epochs give at least 80 steps.
	if res.Steps < 80 {
		t.Errorf("steps = %d, want >= 80", res.Steps)
	}
}

// TestRLViewBitIdenticalAcrossParallelism runs Algorithm 2 end to end —
// the fanned-out action sweep picking every greedy action, the trainer
// folding replay batches whose terminal samples cost almost nothing next
// to the bootstrapping ones — at 1, 2 and 8 workers: the utility trace,
// and the fine-tuned weights behind it, must not differ in a single bit.
func TestRLViewBitIdenticalAcrossParallelism(t *testing.T) {
	run := func(p int) (*Result, []float64) {
		in := randomInstance(rand.New(rand.NewSource(7)), 10, 8)
		res := RLView(in, Options{
			InitIterations: 5,
			Epochs:         10,
			Agent:          AgentConfig{Parallelism: p},
			Rand:           rand.New(rand.NewSource(8)),
		})
		var w []float64
		for _, prm := range res.Agent.Net.Params() {
			w = append(w, prm.Val...)
		}
		return res, w
	}
	want, wantW := run(1)
	for _, p := range []int{2, 8} {
		got, w := run(p)
		if len(got.Trace) != len(want.Trace) {
			t.Fatalf("P=%d: %d trace entries, serial %d", p, len(got.Trace), len(want.Trace))
		}
		for i := range want.Trace {
			if got.Trace[i] != want.Trace[i] { // bit-identity is the property under test
				t.Fatalf("P=%d: trace[%d] = %.17g, serial %.17g", p, i, got.Trace[i], want.Trace[i])
			}
		}
		for i := range wantW {
			if w[i] != wantW[i] { // bit-identity is the property under test
				t.Fatalf("P=%d: weight[%d] = %.17g, serial %.17g", p, i, w[i], wantW[i])
			}
		}
	}
}

// TestUsedViewsUtilityMatchesInstanceUtility walks random flips the way
// an episode does — flip z_j, RecomputeYForView, refresh — and holds the
// O(used) reward to mvs.Instance.Utility's full scan, bit for bit, after
// every step.
func TestUsedViewsUtilityMatchesInstanceUtility(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := randomInstance(rng, 3+rng.Intn(12), 2+rng.Intn(10))
		st := mvs.NewState(in)
		for j := range st.Z {
			st.Z[j] = rng.Intn(2) == 0
		}
		var bcur []float64
		st.Y, bcur = in.BestY(st.Z)
		used := newUsedViews(st.Y)
		for step := 0; step <= 60; step++ {
			if got, want := used.utility(in, st.Z), in.Utility(st); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d step %d: utility %.17g, Instance.Utility %.17g", seed, step, got, want)
			}
			j := rng.Intn(in.NumViews())
			st.Z[j] = !st.Z[j]
			in.RecomputeYForView(st, bcur, j)
			used.refresh(in, st.Y, j)
		}
	}
}

func TestRLViewNotWorseThanWarmStartAndNearOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in := randomInstance(rng, 12, 8)
	opt := mvs.OptimalExact(in, 0)
	warm := mvs.IterView(in, mvs.IterOptions{Iterations: 10, Rand: rand.New(rand.NewSource(10))})
	res := RLView(in, Options{
		InitIterations: 10,
		Epochs:         30,
		Rand:           rand.New(rand.NewSource(10)),
	})
	if res.BestUtility < warm.BestUtility-1e-9 {
		t.Errorf("RLView best %v below its own warm start %v", res.BestUtility, warm.BestUtility)
	}
	if res.BestUtility > opt.Utility+1e-9 {
		t.Fatalf("RLView best %v exceeds optimum %v", res.BestUtility, opt.Utility)
	}
	if res.BestUtility < 0.6*opt.Utility {
		t.Errorf("RLView best %v far below optimum %v", res.BestUtility, opt.Utility)
	}
}

func TestRLViewStabilizesRelativeToIterView(t *testing.T) {
	// Figure 10's qualitative claim: late-run utilities fluctuate less
	// under RLView than under IterView.
	rng := rand.New(rand.NewSource(11))
	in := randomInstance(rng, 20, 12)
	iters := 300
	iv := mvs.IterView(in, mvs.IterOptions{Iterations: iters, Rand: rand.New(rand.NewSource(12))})
	res := RLView(in, Options{
		InitIterations: 10,
		Epochs:         20,
		Rand:           rand.New(rand.NewSource(12)),
	})
	ivVar := tailVariance(iv.Trace)
	rlVar := tailVariance(res.Trace)
	if rlVar > ivVar {
		t.Errorf("RLView tail variance %v exceeds IterView %v", rlVar, ivVar)
	}
}

func tailVariance(trace []float64) float64 {
	n := len(trace) / 2
	tail := trace[len(trace)-n:]
	var mean float64
	for _, v := range tail {
		mean += v
	}
	mean /= float64(len(tail))
	var variance float64
	for _, v := range tail {
		d := v - mean
		variance += d * d
	}
	return variance / float64(len(tail))
}

func TestRLViewPretrainedAgentReused(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	in := randomInstance(rng, 6, 6)
	agent := NewAgent(AgentConfig{}, rand.New(rand.NewSource(14)))
	res := RLView(in, Options{
		InitIterations: 3,
		Epochs:         3,
		Pretrained:     agent,
		Rand:           rand.New(rand.NewSource(15)),
	})
	if res.Agent != agent {
		t.Error("pretrained agent was not reused")
	}
	if agent.MemoryLen() == 0 {
		t.Error("online run should populate the replay memory")
	}
}

func TestAgentSaveLoad(t *testing.T) {
	a := NewAgent(AgentConfig{}, rand.New(rand.NewSource(20)))
	feat := make([]float64, FeatureDim)
	feat[0] = 1
	want := onlineQ(a, feat)
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := NewAgent(AgentConfig{}, rand.New(rand.NewSource(21)))
	if onlineQ(b, feat) == want {
		t.Fatal("fresh agent accidentally matches; test vacuous")
	}
	if err := b.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if got := onlineQ(b, feat); got != want {
		t.Errorf("Q after load = %v, want %v", got, want)
	}
}

func TestTargetNetworkSync(t *testing.T) {
	a := NewAgent(AgentConfig{TargetSync: 3, LearnRate: 0.05, BatchSize: 4}, rand.New(rand.NewSource(31)))
	if a.target == nil {
		t.Fatal("target network missing")
	}
	f := make([]float64, FeatureDim)
	f[0] = 1
	a.Remember(Experience{Taken: f, Reward: 1, NextState: [][]float64{f}})
	// Before any sync the target diverges from the online net after
	// learning; after TargetSync calls they coincide.
	a.Learn()
	if onlineQ(a, f) == targetQ(a, f) {
		t.Fatal("target should lag the online network after one update")
	}
	a.Learn()
	a.Learn() // third call triggers the sync
	if onlineQ(a, f) != targetQ(a, f) {
		t.Errorf("target not synced: online %v, target %v", onlineQ(a, f), targetQ(a, f))
	}
}

func TestOfflineTrainRoundTrip(t *testing.T) {
	// Collect experiences online, persist the pool, load it back, train
	// an agent offline, and verify it learned the same preference.
	src := NewAgent(AgentConfig{}, rand.New(rand.NewSource(33)))
	f0 := make([]float64, FeatureDim)
	f0[0] = 1
	f1 := make([]float64, FeatureDim)
	f1[1] = 1
	state := [][]float64{f0, f1}
	for i := 0; i < 30; i++ {
		src.Remember(Experience{Taken: f0, Reward: 1, NextState: state, Terminal: true})
		src.Remember(Experience{Taken: f1, Reward: 0, NextState: state, Terminal: true})
	}
	var buf bytes.Buffer
	if err := SaveReplay(&buf, src.Memory()); err != nil {
		t.Fatal(err)
	}
	pool, err := LoadReplay(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(pool) != 60 {
		t.Fatalf("loaded %d experiences, want 60", len(pool))
	}
	agent, err := OfflineTrain(pool, AgentConfig{LearnRate: 0.01, BatchSize: 8}, 400)
	if err != nil {
		t.Fatal(err)
	}
	if agent.BestAction(state) != 0 {
		t.Error("offline-trained agent did not learn the preference")
	}
	if agent.MemoryLen() != 0 {
		t.Error("offline training should not leave the online memory populated")
	}
}

func TestOfflineTrainErrors(t *testing.T) {
	if _, err := OfflineTrain(nil, AgentConfig{}, 5); err == nil {
		t.Error("empty replay pool should error")
	}
}

func TestReplayRoundTripPreservesExperience(t *testing.T) {
	pool := []Experience{
		{Taken: seq(10), Reward: 0.25, NextState: [][]float64{seq(20), seq(30)}},
		{Taken: seq(0), Reward: -1, Terminal: true},
	}
	var buf bytes.Buffer
	if err := SaveReplay(&buf, pool); err != nil {
		t.Fatal(err)
	}
	got, err := LoadReplay(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, pool) {
		t.Errorf("round trip changed the pool:\n got %+v\nwant %+v", got, pool)
	}
}

// TestLoadReplayRejects: a stored pool is input from outside the
// program, and each of these made Learn either panic or train on
// garbage. The first case is the parent format's crash: its loader
// accepted any action index, and Learn indexed the state matrix with it.
func TestLoadReplayRejects(t *testing.T) {
	row := strings.Repeat("0,", FeatureDim-1) + "0"
	good := `{"taken":[` + row + `],"reward":1,"next_state":[[` + row + `]],"terminal":false}`
	if _, err := LoadReplay(strings.NewReader("[" + good + "]")); err != nil {
		t.Fatalf("well-formed pool rejected: %v", err)
	}
	for _, tc := range []struct{ name, pool string }{
		{"parent format, action index past the state's rows",
			`[{"state":[` + row + `],"action":3,"reward":1,"next_state":[],"terminal":true}]`},
		{"taken row too narrow", `[{"taken":[1,2,3],"reward":1,"terminal":true}]`},
		{"taken row missing", `[{"reward":1,"terminal":true}]`},
		{"next-state row too wide",
			`[{"taken":[` + row + `],"next_state":[[` + row + `,0]],"terminal":false}]`},
		{"non-terminal without a next state", `[{"taken":[` + row + `],"reward":1,"terminal":false}]`},
		{"bad experience after a good one", `[` + good + `,{"taken":[],"terminal":true}]`},
		{"overflowing reward", `[{"taken":[` + row + `],"reward":1e999,"terminal":true}]`},
		{"NaN feature", `[{"taken":[NaN,` + row[2:] + `],"terminal":true}]`},
		{"not JSON", `{not json`},
	} {
		if pool, err := LoadReplay(strings.NewReader(tc.pool)); err == nil {
			t.Errorf("%s: accepted as %+v", tc.name, pool)
		}
	}
}

func seq(base float64) []float64 {
	out := make([]float64, FeatureDim)
	for i := range out {
		out[i] = base + float64(i)
	}
	return out
}

func TestRLViewTargetSyncRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	in := randomInstance(rng, 8, 6)
	res := RLView(in, Options{
		InitIterations: 3,
		Epochs:         5,
		Agent:          AgentConfig{TargetSync: 8},
		Rand:           rand.New(rand.NewSource(35)),
	})
	if !in.Feasible(res.Best) {
		t.Error("target-network RLView produced infeasible state")
	}
	if res.BestUtility <= 0 {
		t.Errorf("target-network RLView best utility %v", res.BestUtility)
	}
}
