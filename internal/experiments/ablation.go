package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"autoview/internal/featenc"
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
	w := Workloads(s)[0]
	maxPairs := 0
	if s == Quick {
		maxPairs = 180
	}
	pairs, err := buildPairs(w, maxPairs, 21)
	if err != nil {
		return nil, err
	}
	trainIdx, _, testIdx := metrics.Split(len(pairs), 0.7, 0.1, 5)
	train := pick(pairs, trainIdx)
	test := pick(pairs, testIdx)
	cfg := configFor(w.Name, s)

	evalModel := func(mcfg widedeep.Config) (float64, error) {
		mcfg.Encoder.EmbedDim = cfg.WDModel.Encoder.EmbedDim
		mcfg.Encoder.Hidden = cfg.WDModel.Encoder.Hidden
		vocab := featenc.NewVocab(w.Cat, featenc.CollectPlanKeywords(w.Plans()))
		m := widedeep.New(vocab, mcfg, rand.New(rand.NewSource(9)))
		samples := make([]widedeep.Sample, len(train))
		for i, sm := range train {
			samples[i] = widedeep.Sample{F: sm.F, Y: sm.Actual}
		}
		if _, err := m.Fit(samples, cfg.WDTrain); err != nil {
			return 0, err
		}
		var y, yhat []float64
		for _, sm := range test {
			y = append(y, sm.Actual)
			yhat = append(yhat, m.Predict(sm.F))
		}
		return metrics.MAPEWithFloor(y, yhat), nil
	}
	if res.WideDeepMAPE, err = evalModel(widedeep.Config{}); err != nil {
		return nil, err
	}
	if res.WideOnlyMAPE, err = evalModel(widedeep.Config{WideOnly: true}); err != nil {
		return nil, err
	}
	if res.DeepOnlyMAPE, err = evalModel(widedeep.Config{DeepOnly: true}); err != nil {
		return nil, err
	}

	// --- Selection ablations on the ground-truth instance ---------------
	_, p, err := groundTruthProblem(w, s)
	if err != nil {
		return nil, err
	}
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
