// Package core is the public facade of the system: the end-to-end
// pipeline of Figure 3. An Advisor pre-processes a workload (subquery
// extraction, equivalence detection, clustering), estimates costs and
// utilities (measured, analytic-optimizer, or Wide-Deep), selects views
// (RLView, local search, BigSub, IterView, or greedy top-k), rewrites the
// workload, and reports end-to-end savings. An Advisor keeps nothing
// between runs but the views its Mgr materialized.
//
// Exported types map onto the paper's constructs as follows:
//
//   - Advisor.Preprocess is the pre-process stage (Section III): it emits
//     the candidate views Z and their associated queries Q.
//   - Advisor.BuildProblem assembles the MVS instance (Definition 7): the
//     benefit matrix B(q_i, v_j) = A(q_i) − A(q_i|v_j) from the configured
//     EstimatorKind — measured on the engine, the analytic optimizer
//     estimate, or the Wide-Deep model of Section IV — plus the view
//     overheads O_vj and the Definition 5 overlap constants x_jk.
//   - Advisor.Select solves the instance with the configured SelectorKind:
//     SelectorRLView is the DQN-based Algorithm 2, SelectorLocalSearch
//     the restarted hill climb, SelectorIterView the iterative Z-Opt/Y-Opt
//     optimizer, SelectorBigSub and the SelectorTopk* family the
//     experiments' baselines. An RLView Selection carries the run's replay
//     pool (Selection.Replay); the paper's offline DQN training is the
//     caller's to spell: persist it with rl.SaveReplay, and on a later run
//     set Config.RL.Pretrained = rl.OfflineTrain(pool, Config.RL.Agent, n).
//   - Advisor.Apply rewrites and re-executes the workload, and Report
//     carries Table V's columns (#q, c_q, #m, o_m, #(q|v), b_{q|v}) plus
//     the saved-cost ratio r_c.
//
// Every stage is timed under the advisor.* observability spans; see
// OBSERVABILITY.md.
package core

import (
	"fmt"
	"strings"

	"autoview/internal/engine"
	"autoview/internal/featenc"
	"autoview/internal/mvs"
	"autoview/internal/rl"
	"autoview/internal/widedeep"
)

// EstimatorKind selects how per-pair benefits B(q, v) are obtained.
type EstimatorKind int

const (
	// EstimatorActual measures every rewritten query on the engine —
	// ground truth, used to evaluate the estimators themselves.
	EstimatorActual EstimatorKind = iota
	// EstimatorOptimizer uses the traditional analytic cost model
	// (Table V's "O" configurations).
	EstimatorOptimizer
	// EstimatorWideDeep trains the W-D model on a sample of measured
	// pairs and predicts the rest (Table V's "W" configurations).
	EstimatorWideDeep
)

// String returns the short name used in the experiments.
func (e EstimatorKind) String() string {
	switch e {
	case EstimatorActual:
		return "Actual"
	case EstimatorOptimizer:
		return "Optimizer"
	case EstimatorWideDeep:
		return "W-D"
	default:
		return "?"
	}
}

// SelectorKind selects the view-selection algorithm.
type SelectorKind int

const (
	// SelectorRLView is the paper's DQN-based method.
	SelectorRLView SelectorKind = iota
	// SelectorBigSub is the freeze-converged iterative baseline.
	SelectorBigSub
	// SelectorIterView is raw iterative optimization (no freeze).
	SelectorIterView
	// SelectorTopkFreq .. SelectorTopkNorm are the greedy baselines.
	SelectorTopkFreq
	SelectorTopkOver
	SelectorTopkBen
	SelectorTopkNorm
	// SelectorLocalSearch is the hill-climbing local search (add/drop/
	// swap neighborhood, restart schedule) of mvs.LocalSearch.
	SelectorLocalSearch
)

// String returns the paper's method name.
func (s SelectorKind) String() string {
	switch s {
	case SelectorRLView:
		return "RLView"
	case SelectorBigSub:
		return "BigSub"
	case SelectorIterView:
		return "IterView"
	case SelectorTopkFreq:
		return "TopkFreq"
	case SelectorTopkOver:
		return "TopkOver"
	case SelectorTopkBen:
		return "TopkBen"
	case SelectorTopkNorm:
		return "TopkNorm"
	case SelectorLocalSearch:
		return "LocalSearch"
	default:
		return "?"
	}
}

// SelectorNames maps every flag-accepted selector name to its kind; it is
// the single registry both CLIs parse against (keys are lower-case).
func SelectorNames() map[string]SelectorKind {
	return map[string]SelectorKind{
		"rlview":      SelectorRLView,
		"bigsub":      SelectorBigSub,
		"iterview":    SelectorIterView,
		"topkfreq":    SelectorTopkFreq,
		"topkover":    SelectorTopkOver,
		"topkben":     SelectorTopkBen,
		"topknorm":    SelectorTopkNorm,
		"localsearch": SelectorLocalSearch,
	}
}

// ParseSelector resolves a flag value (case-insensitive) against
// SelectorNames.
func ParseSelector(name string) (SelectorKind, error) {
	if s, ok := SelectorNames()[strings.ToLower(name)]; ok {
		return s, nil
	}
	return 0, fmt.Errorf("unknown selector %q", name)
}

// ParseEstimator resolves a flag value (case-insensitive) to an
// EstimatorKind.
func ParseEstimator(name string) (EstimatorKind, error) {
	switch strings.ToLower(name) {
	case "actual":
		return EstimatorActual, nil
	case "optimizer":
		return EstimatorOptimizer, nil
	case "wd", "w-d", "widedeep":
		return EstimatorWideDeep, nil
	default:
		return 0, fmt.Errorf("unknown estimator %q", name)
	}
}

// Config carries the pipeline parameters. DefaultConfig mirrors the
// paper's Table II defaults for the JOB-scale setting.
type Config struct {
	Pricing engine.Pricing
	// MinShare is the minimum number of queries sharing a cluster for
	// it to become a candidate (pre-process).
	MinShare int

	Estimator EstimatorKind
	// TrainFraction of measured pairs feeds W-D training (7:1:2 in the
	// paper's split; the pipeline uses the train fraction only).
	TrainFraction float64
	// WDTrain is Algorithm 1's hyper-parameters (Table II: I, lr, b_s).
	WDTrain widedeep.TrainConfig
	// WDModel sizes the W-D network.
	WDModel widedeep.Config

	Selector SelectorKind
	// Iter configures IterView/BigSub (Table II: n1 as warm start, and
	// the iteration budget n for the convergence experiment).
	Iter mvs.IterOptions
	// Local configures the hill-climbing local search (its restart
	// schedule). Rand is filled by the advisor.
	Local mvs.LocalSearchOptions
	// RL configures RLView (Table II: n1, n2, nm, γ). RL.Pretrained, when
	// set, is the offline-trained DQN the run fine-tunes (rl.OfflineTrain).
	RL rl.Options

	// Parallelism is the number of data-parallel workers every neural
	// training loop (W-D Algorithm 1, DQN replay updates) shards its
	// mini-batches across, and the fan-out of the engine's pair
	// measurement and the held-out W-D predictions. 0 selects
	// runtime.NumCPU(); 1 runs serially. Gradients are reduced in sample
	// order and fanned-out results land in index order, so results are
	// bit-for-bit identical for every setting. It is the only worker
	// count an advisor honours: WDTrain.Parallelism and
	// RL.Agent.Parallelism are overwritten with it.
	Parallelism int

	Seed int64
}

// DefaultConfig returns the paper's JOB defaults (Table II): I=50,
// lr=0.01, b_s=8, n1=10, n2=90, nm=20, γ=0.9, and the pricing constants
// α=1.67e-5, β=1e-1, γ=1e-3.
func DefaultConfig() Config {
	return Config{
		Pricing:       engine.DefaultPricing(),
		MinShare:      2,
		Estimator:     EstimatorWideDeep,
		TrainFraction: 0.7,
		WDTrain: widedeep.TrainConfig{
			Epochs:    50,
			LearnRate: 0.01,
			BatchSize: 8,
		},
		WDModel:  widedeep.Config{Encoder: featenc.Config{EmbedDim: 16, Hidden: 16}},
		Selector: SelectorRLView,
		Iter:     mvs.IterOptions{Iterations: 100},
		RL: rl.Options{
			InitIterations:  10,
			Epochs:          90,
			MemoryThreshold: 20,
			Agent:           rl.AgentConfig{Gamma: 0.9},
		},
		Seed: 1,
	}
}

// WKConfig returns the paper's WK-scale defaults (Table II): I=20,
// lr=0.005, b_s=128, nm scaled to our workload sizes, and a reduced n2
// (the paper uses 990/490 episodes on 38k/157k-query workloads; our
// workloads are ~60× smaller, so episodes scale down accordingly).
func WKConfig() Config {
	cfg := DefaultConfig()
	cfg.WDTrain = widedeep.TrainConfig{Epochs: 20, LearnRate: 0.005, BatchSize: 128}
	cfg.RL.Epochs = 60
	cfg.RL.MemoryThreshold = 100
	cfg.RL.LearnEvery = 4
	return cfg
}

// ConfigFor picks the pipeline budgets for a workload by its name: the
// paper's JOB configuration, the WK one for the generated families, and
// the WK one with a small W-D batch for custom workloads (typically few
// queries).
func ConfigFor(name string) Config {
	cfg := WKConfig()
	switch name {
	case "JOB":
		cfg = DefaultConfig()
	case "custom":
		cfg.WDTrain.BatchSize = 16
	}
	return cfg
}
