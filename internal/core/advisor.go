package core

import (
	"fmt"
	"math/rand"

	"autoview/internal/catalog"
	"autoview/internal/costbase"
	"autoview/internal/engine"
	"autoview/internal/equiv"
	"autoview/internal/featenc"
	"autoview/internal/metrics"
	"autoview/internal/mvs"
	"autoview/internal/nn"
	"autoview/internal/obs"
	"autoview/internal/plan"
	"autoview/internal/rewrite"
	"autoview/internal/rl"
	"autoview/internal/selbase"
	"autoview/internal/widedeep"
)

// Pipeline metrics: per-run sizes land in gauges (last run wins), work
// done accumulates in counters. The advisor.* spans time every stage of
// Figure 3; see OBSERVABILITY.md for the full catalog.
var (
	obsRuns          = obs.Default.Counter("core.runs", "completed Advisor.Run invocations")
	obsQueries       = obs.Default.Counter("core.queries", "workload queries processed by BuildProblem")
	obsPairsMeasured = obs.Default.Counter("core.pairs.measured", "(query, view) pairs measured on the engine")
	obsViewsSelected = obs.Default.Gauge("core.views.selected", "views chosen by the last selection")
	obsSavedRatio    = obs.Default.Gauge("core.saved.ratio", "saved-cost ratio r_c of the last report (%)")
)

// Advisor runs the end-to-end pipeline over one workload.
type Advisor struct {
	Cat  *catalog.Catalog
	Exec *engine.Executor
	Mgr  *rewrite.Manager
	Cfg  Config
}

// NewAdvisor builds an advisor over populated storage.
func NewAdvisor(cat *catalog.Catalog, exec *engine.Executor, cfg Config) *Advisor {
	return &Advisor{
		Cat:  cat,
		Exec: exec,
		Mgr:  rewrite.NewManager(exec.Store),
		Cfg:  cfg,
	}
}

// Candidate bundles one selectable view with its measurements.
type Candidate struct {
	*equiv.Candidate
	View     *rewrite.View
	Overhead float64 // O_vj under the configured estimator
}

// Problem is the assembled MVS instance plus everything needed to apply a
// selection to the workload.
type Problem struct {
	// Queries holds the workload plans (full workload order).
	Queries []*plan.Node
	// Pre is the pre-process result.
	Pre *equiv.Result
	// Candidates aligns with Instance's view axis.
	Candidates []*Candidate
	// AssocQueries maps Instance's query axis to workload indices.
	AssocQueries []int
	// Instance is the ILP instance (benefits from the configured
	// estimator; overlaps from Definition 5).
	Instance *mvs.Instance
	// QueryCost[i] is the measured cost A(q) of workload query i, and
	// QueryUsage[i] the metered usage it is priced from.
	QueryCost  []float64
	QueryUsage []engine.Usage
	// Model is the trained W-D model when Estimator is EstimatorWideDeep.
	Model *widedeep.Model

	// benefits[ai][j] backs Instance.Benefit (associated-query axis).
	benefits [][]float64
}

// Frequencies returns per-candidate workload frequencies (TopkFreq input).
func (p *Problem) Frequencies() []int {
	out := make([]int, len(p.Candidates))
	for j, c := range p.Candidates {
		out[j] = c.Frequency
	}
	return out
}

// TotalQueryCost is Σ A(q) over the associated queries — the denominator
// of Table IV's ratio.
func (p *Problem) TotalQueryCost() float64 {
	var total float64
	for _, qi := range p.AssocQueries {
		total += p.QueryCost[qi]
	}
	return total
}

// Preprocess runs the pre-process stage (Fig. 3) with the analytic cost
// model ranking cluster representatives.
func (a *Advisor) Preprocess(queries []*plan.Node) *equiv.Result {
	defer obs.StartSpan("advisor.preprocess")()
	return equiv.Preprocess(queries, &equiv.Options{
		MinShare: a.Cfg.MinShare,
		CostOf: func(n *plan.Node) float64 {
			est := costbase.EstimatePlan(n, a.Cat)
			return est.Usage().TotalViewOverhead(a.Cfg.Pricing)
		},
	})
}

// BuildProblem materializes the candidate views, measures or estimates
// benefits and overheads per the configured estimator, and assembles the
// ILP instance.
func (a *Advisor) BuildProblem(queries []*plan.Node, pre *equiv.Result) (*Problem, error) {
	p := &Problem{Queries: queries, Pre: pre, AssocQueries: pre.AssociatedQueries}
	obsQueries.Add(int64(len(queries)))

	var err error
	obs.Time("advisor.measure", func() { err = a.measureQueryCosts(p, queries) })
	if err != nil {
		obs.Error("advisor.measure", "err", err)
		return nil, err
	}
	obs.Time("advisor.materialize", func() { err = a.materializeCandidates(p, pre) })
	if err != nil {
		obs.Error("advisor.materialize", "err", err)
		return nil, err
	}
	obs.Time("advisor.estimate", func() { err = a.fillBenefits(p) })
	if err != nil {
		obs.Error("advisor.estimate", "err", err, "estimator", a.Cfg.Estimator.String())
		return nil, err
	}

	// Assemble the instance on the associated-query axis.
	nv := len(p.Candidates)
	inst := &mvs.Instance{
		Overhead: make([]float64, nv),
		Overlap:  make([][]bool, nv),
	}
	for j, c := range p.Candidates {
		inst.Overhead[j] = c.Overhead
		inst.Overlap[j] = append([]bool(nil), pre.Overlap[j]...)
	}
	inst.Benefit = p.benefits
	p.Instance = inst
	if err := inst.Validate(); err != nil {
		return nil, fmt.Errorf("core: assembled instance invalid: %w", err)
	}
	return p, nil
}

// measureQueryCosts measures the raw cost A(q) of every workload query
// once, fanned out like measureAll over the same read-only executor;
// results land in query order and the lowest-indexed failure is the one
// returned.
func (a *Advisor) measureQueryCosts(p *Problem, queries []*plan.Node) error {
	pricing := a.Cfg.Pricing
	p.QueryCost = make([]float64, len(queries))
	p.QueryUsage = make([]engine.Usage, len(queries))
	errs := make([]error, len(queries))
	nn.ParallelFor(len(queries), a.Cfg.Parallelism, func(i int) {
		u, err := a.Exec.Cost(queries[i])
		if err != nil {
			errs[i] = err
			return
		}
		p.QueryUsage[i] = u
		p.QueryCost[i] = u.Cost(pricing)
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("core: measuring query %d: %w", i, err)
		}
	}
	return nil
}

// materializeCandidates builds every candidate view (needed to rewrite
// later; the actual build usage provides the measured overhead).
func (a *Advisor) materializeCandidates(p *Problem, pre *equiv.Result) error {
	pricing := a.Cfg.Pricing
	for _, cand := range pre.Candidates {
		v, err := a.Mgr.Materialize(cand.Plan)
		if err != nil {
			return fmt.Errorf("core: materializing candidate: %w", err)
		}
		overhead := v.Overhead(pricing)
		if a.Cfg.Estimator == EstimatorOptimizer {
			est := costbase.EstimatePlan(cand.Plan, a.Cat)
			overhead = est.Usage().TotalViewOverhead(pricing)
		}
		p.Candidates = append(p.Candidates, &Candidate{
			Candidate: cand,
			View:      v,
			Overhead:  overhead,
		})
	}
	return nil
}

// pairKey identifies one (associated query, candidate) pair.
type pairKey struct{ qi, j int }

// fillBenefits populates p.benefits[ai][j] for associated query ai and
// candidate j under the configured estimator.
func (a *Advisor) fillBenefits(p *Problem) error {
	pricing := a.Cfg.Pricing
	assocIndex := make(map[int]int, len(p.AssocQueries))
	for ai, qi := range p.AssocQueries {
		assocIndex[qi] = ai
	}
	p.benefits = make([][]float64, len(p.AssocQueries))
	for ai := range p.benefits {
		p.benefits[ai] = make([]float64, len(p.Candidates))
	}

	// Enumerate applicable pairs.
	var pairs []pairKey
	for j, c := range p.Candidates {
		for _, qi := range c.Queries {
			pairs = append(pairs, pairKey{qi: qi, j: j})
		}
	}

	switch a.Cfg.Estimator {
	case EstimatorActual:
		costs, err := a.measureAll(p, pairs)
		if err != nil {
			return err
		}
		for i, pk := range pairs {
			p.benefits[assocIndex[pk.qi]][pk.j] = p.QueryCost[pk.qi] - costs[i]
		}
	case EstimatorOptimizer:
		opt := &costbase.OptimizerEstimator{Cat: a.Cat, Pricing: pricing}
		for _, pk := range pairs {
			est := opt.EstimateRewritten(p.Queries[pk.qi], p.Candidates[pk.j].View.Plan)
			qEst := costbase.EstimatePlan(p.Queries[pk.qi], a.Cat).Usage().Cost(pricing)
			p.benefits[assocIndex[pk.qi]][pk.j] = qEst - est
		}
	case EstimatorWideDeep:
		if err := a.wideDeepBenefits(p, pairs, assocIndex); err != nil {
			return err
		}
	default:
		return fmt.Errorf("core: unknown estimator %v", a.Cfg.Estimator)
	}
	return nil
}

// measureAll measures A(q|v) for every pair by executing the rewritten
// queries, fanned out over Cfg.Parallelism workers (nn.ParallelFor; 0
// selects runtime.NumCPU()). The executor only reads the store (views
// are already materialized) and each execution carries its own meter,
// so concurrent measurement is safe; results are returned in pair order
// so downstream consumers stay deterministic.
func (a *Advisor) measureAll(p *Problem, pairs []pairKey) ([]float64, error) {
	obsPairsMeasured.Add(int64(len(pairs)))
	costs := make([]float64, len(pairs))
	errs := make([]error, len(pairs))
	pricing := a.Cfg.Pricing

	nn.ParallelFor(len(pairs), a.Cfg.Parallelism, func(i int) {
		pk := pairs[i]
		rw, n := rewrite.Rewrite(p.Queries[pk.qi], []*rewrite.View{p.Candidates[pk.j].View})
		if n == 0 {
			costs[i] = p.QueryCost[pk.qi]
			return
		}
		u, err := a.Exec.Cost(rw)
		if err != nil {
			errs[i] = err
			return
		}
		costs[i] = u.Cost(pricing)
	})
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: measuring rewritten pair: %w", err)
		}
	}
	return costs, nil
}

// wideDeepBenefits measures a training fraction of pairs, trains W-D on
// them (Algorithm 1), and predicts the rest.
func (a *Advisor) wideDeepBenefits(p *Problem, pairs []pairKey, assocIndex map[int]int) error {
	frac := a.Cfg.TrainFraction
	if frac <= 0 || frac > 1 {
		frac = 0.7
	}
	trainIdx, _, _ := metrics.Split(len(pairs), frac, 0, a.Cfg.Seed)
	inTrain := make(map[int]bool, len(trainIdx))
	for _, i := range trainIdx {
		inTrain[i] = true
	}
	var trainPairs []pairKey
	for i, pk := range pairs {
		if inTrain[i] {
			trainPairs = append(trainPairs, pk)
		}
	}

	// Shared vocabulary across plans.
	extra := featenc.CollectPlanKeywords(p.Queries)
	vocab := featenc.NewVocab(a.Cat, extra)
	rng := rand.New(rand.NewSource(a.Cfg.Seed))
	model := widedeep.New(vocab, a.Cfg.WDModel, rng)

	costs, err := a.measureAll(p, trainPairs)
	if err != nil {
		return err
	}
	var samples []widedeep.Sample
	scale := costScale(p.QueryCost)
	for k, pk := range trainPairs {
		cost := costs[k]
		f := featenc.Extract(p.Queries[pk.qi], p.Candidates[pk.j].View.Plan, a.Cat)
		samples = append(samples, widedeep.Sample{F: f, Y: cost * scale})
		// Training pairs use their measured benefit directly.
		p.benefits[assocIndex[pk.qi]][pk.j] = p.QueryCost[pk.qi] - cost
	}
	if len(samples) == 0 {
		return fmt.Errorf("core: no W-D training pairs (workload too small?)")
	}
	trainCfg := a.Cfg.WDTrain
	trainCfg.Parallelism = a.Cfg.Parallelism
	if _, err := model.Fit(samples, trainCfg); err != nil {
		return err
	}
	p.Model = model

	// The held-out pairs: plan-local features once per query and per
	// candidate, one extractor, one batched forward.
	ex := featenc.NewBatchExtractor(a.Cat)
	qFeat := make([]*featenc.PlanFeat, len(p.Queries))
	vFeat := make([]*featenc.PlanFeat, len(p.Candidates))
	var held []pairKey
	var fs []featenc.Features
	for i, pk := range pairs {
		if inTrain[i] {
			continue
		}
		if qFeat[pk.qi] == nil {
			qFeat[pk.qi] = featenc.Precompute(p.Queries[pk.qi])
		}
		if vFeat[pk.j] == nil {
			vFeat[pk.j] = featenc.Precompute(p.Candidates[pk.j].View.Plan)
		}
		held = append(held, pk)
		fs = append(fs, ex.ExtractPre(qFeat[pk.qi], vFeat[pk.j]))
	}
	for k, predicted := range model.PredictBatch(fs, a.Cfg.Parallelism) {
		pk := held[k]
		p.benefits[assocIndex[pk.qi]][pk.j] = p.QueryCost[pk.qi] - predicted/scale
	}
	return nil
}

// costScale maps dollar costs into O(1) training magnitudes.
func costScale(costs []float64) float64 {
	var max float64
	for _, c := range costs {
		if c > max {
			max = c
		}
	}
	if max <= 0 {
		return 1
	}
	return 1 / max
}

// Selection is the outcome of the view-selection stage.
type Selection struct {
	Method  string
	Z       []bool
	Utility float64 // estimated utility under the instance's benefits
	Trace   []float64
	K       int // top-k cut for greedy methods (0 otherwise)
	// Replay is the RLView agent's replay memory (shared, not copied; nil
	// for every other selector): what rl.SaveReplay persists and
	// rl.OfflineTrain pretrains Config.RL.Pretrained from.
	Replay []rl.Experience
}

// Selected returns the number of chosen views.
func (s *Selection) Selected() int {
	n := 0
	for _, z := range s.Z {
		if z {
			n++
		}
	}
	return n
}

// Select runs the configured selection algorithm on the problem. An
// unknown selector is returned to the caller and logged as a structured
// obs event rather than silently folded into the selection.
func (a *Advisor) Select(p *Problem) (*Selection, error) {
	defer obs.StartSpan("advisor.select")()
	sel, err := a.selectViews(p)
	if err != nil {
		obs.Error("advisor.select", "selector", a.Cfg.Selector.String(), "err", err)
		return nil, err
	}
	obsViewsSelected.Set(float64(sel.Selected()))
	obs.Info("advisor.select", "selector", sel.Method, "views", sel.Selected(), "utility", sel.Utility)
	return sel, nil
}

func (a *Advisor) selectViews(p *Problem) (*Selection, error) {
	in := p.Instance
	rng := rand.New(rand.NewSource(a.Cfg.Seed + 7))
	switch a.Cfg.Selector {
	case SelectorRLView:
		opts := a.Cfg.RL
		opts.Rand = rng
		opts.Agent.Parallelism = a.Cfg.Parallelism
		res := rl.RLView(in, opts)
		return &Selection{Method: "RLView", Z: res.Best.Z, Utility: res.BestUtility, Trace: res.Trace, Replay: res.Agent.Memory()}, nil
	case SelectorBigSub:
		res := selbase.BigSub(in, selbase.BigSubOptions{
			Iterations: a.Cfg.Iter.Iterations,
			Rand:       rng,
		})
		return &Selection{Method: "BigSub", Z: res.Best.Z, Utility: res.BestUtility, Trace: res.Trace}, nil
	case SelectorIterView:
		opts := a.Cfg.Iter
		opts.Rand = rng
		res := mvs.IterView(in, opts)
		return &Selection{Method: "IterView", Z: res.Best.Z, Utility: res.BestUtility, Trace: res.Trace}, nil
	case SelectorLocalSearch:
		opts := a.Cfg.Local
		opts.Rand = rng
		res := mvs.LocalSearch(in, opts)
		return &Selection{Method: "LocalSearch", Z: res.Best.Z, Utility: res.BestUtility, Trace: res.Trace}, nil
	default:
		strategy, ok := strategyOf(a.Cfg.Selector)
		if !ok {
			return nil, fmt.Errorf("core: unknown selector %v", a.Cfg.Selector)
		}
		freq := p.Frequencies()
		k, u := selbase.BestK(in, freq, strategy)
		ranking := selbase.Ranking(in, freq, strategy)
		z := make([]bool, in.NumViews())
		for _, j := range ranking[:k] {
			z[j] = true
		}
		return &Selection{Method: strategy.String(), Z: z, Utility: u, K: k}, nil
	}
}

func strategyOf(s SelectorKind) (selbase.Strategy, bool) {
	switch s {
	case SelectorTopkFreq:
		return selbase.TopkFreq, true
	case SelectorTopkOver:
		return selbase.TopkOver, true
	case SelectorTopkBen:
		return selbase.TopkBen, true
	case SelectorTopkNorm:
		return selbase.TopkNorm, true
	default:
		return 0, false
	}
}
