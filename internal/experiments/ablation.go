package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"autoview/internal/metrics"
	"autoview/internal/mvs"
	"autoview/internal/rl"
	"autoview/internal/widedeep"
)

// AblationResult collects the design-choice ablations DESIGN.md calls out:
// wide vs deep vs wide+deep cost modelling, BigSub's freeze rule, DQN
// experience replay, and RLView's Eq.-3-guided exploration.
type AblationResult struct {
	// Cost-model ablation on JOB pairs (MAPE %, lower is better).
	WideDeepMAPE, WideOnlyMAPE, DeepOnlyMAPE float64

	// Selection ablations on the JOB instance (best utility, $).
	IterViewNoFreeze   float64
	IterViewFreeze     float64
	RLViewFull         float64
	RLViewNoReplay     float64
	RLViewUniformExplo float64

	// Convergence: tail standard deviation of the utility trace.
	NoFreezeTailStd float64
	FreezeTailStd   float64
}

// Ablations runs every ablation at quick scale on the JOB workload.
func Ablations(s Scale) (*AblationResult, error) {
	res := &AblationResult{}

	// --- Cost model: wide vs deep vs both -------------------------------
	// The samples and the selection instance come from one problem.
	w := Workloads(s)[0]
	maxPairs := 0
	if s == Quick {
		maxPairs = 180
	}
	pairs, p, err := buildPairs(w, s, maxPairs, 21)
	if err != nil {
		return nil, err
	}
	trainIdx, _, testIdx := metrics.Split(len(pairs), 0.7, 0.1, 5)
	train := pick(pairs, trainIdx)
	test := pick(pairs, testIdx)
	cfg := configFor(w.Name, s)
	for _, m := range []struct {
		mape *float64
		cfg  widedeep.Config
	}{
		{&res.WideDeepMAPE, widedeep.Config{}},
		{&res.WideOnlyMAPE, widedeep.Config{WideOnly: true}},
		{&res.DeepOnlyMAPE, widedeep.Config{DeepOnly: true}},
	} {
		m.cfg.Encoder.EmbedDim = cfg.WDModel.Encoder.EmbedDim
		m.cfg.Encoder.Hidden = cfg.WDModel.Encoder.Hidden
		est := &wdAdapter{cat: w.Cat, plans: w.Plans(), cfg: m.cfg, train: cfg.WDTrain, seed: 9}
		if _, *m.mape, err = score(est, train, test); err != nil {
			return nil, err
		}
	}

	// --- Selection ablations on the ground-truth instance ---------------
	iters := 200
	noFreeze := mvs.IterView(p.Instance, mvs.IterOptions{
		Iterations: iters, Rand: rand.New(rand.NewSource(3)),
	})
	freeze := mvs.IterView(p.Instance, mvs.IterOptions{
		Iterations: iters, FreezeAfter: iters / 2, Rand: rand.New(rand.NewSource(3)),
	})
	res.IterViewNoFreeze = noFreeze.BestUtility
	res.IterViewFreeze = freeze.BestUtility
	_, res.NoFreezeTailStd = Stability(noFreeze.Trace)
	_, res.FreezeTailStd = Stability(freeze.Trace)

	rlOpts := cfg.RL
	rlOpts.Rand = rand.New(rand.NewSource(4))
	res.RLViewFull = rl.RLView(p.Instance, rlOpts).BestUtility

	noReplay := cfg.RL
	noReplay.MemoryThreshold = 1 << 30 // learning never triggers
	noReplay.Rand = rand.New(rand.NewSource(4))
	res.RLViewNoReplay = rl.RLView(p.Instance, noReplay).BestUtility

	uniform := cfg.RL
	uniform.UniformExploration = true
	uniform.Rand = rand.New(rand.NewSource(4))
	res.RLViewUniformExplo = rl.RLView(p.Instance, uniform).BestUtility

	return res, nil
}

// Render formats the ablation summary.
func (r *AblationResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablations (JOB):\n")
	fmt.Fprintf(&b, "  cost model MAPE: wide+deep=%.2f%% wide-only=%.2f%% deep-only=%.2f%%\n",
		r.WideDeepMAPE, r.WideOnlyMAPE, r.DeepOnlyMAPE)
	fmt.Fprintf(&b, "  IterView best utility: no-freeze=$%.4f freeze=$%.4f\n",
		r.IterViewNoFreeze, r.IterViewFreeze)
	fmt.Fprintf(&b, "  IterView tail std: no-freeze=%.4f freeze=%.4f (freeze converges)\n",
		r.NoFreezeTailStd, r.FreezeTailStd)
	fmt.Fprintf(&b, "  RLView best utility: full=$%.4f no-replay=$%.4f uniform-explore=$%.4f\n",
		r.RLViewFull, r.RLViewNoReplay, r.RLViewUniformExplo)
	return b.String()
}
