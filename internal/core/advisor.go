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
	obsPairsMeasured = obs.Default.Counter("core.pairs.measured", "(query, view) pairs whose rewritten usage was metered")
	obsPairsExecuted = obs.Default.Counter("core.pairs.executed", "rewritten queries executed because their usage could not be composed from the query's trace")
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
	// metered holds every pair as BuildProblem metered it under
	// EstimatorActual (nil under the other estimators).
	metered []Pair
	// traces[i] is the trace of that execution, which every rewrite of
	// query i is priced from.
	traces []*engine.Trace
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
// once, keeping the trace every rewrite of it is priced from, fanned out
// like meter over the same read-only executor; results land in
// query order and the lowest-indexed failure is the one returned.
func (a *Advisor) measureQueryCosts(p *Problem, queries []*plan.Node) error {
	pricing := a.Cfg.Pricing
	p.QueryCost = make([]float64, len(queries))
	p.QueryUsage = make([]engine.Usage, len(queries))
	p.traces = make([]*engine.Trace, len(queries))
	errs := make([]error, len(queries))
	nn.ParallelFor(len(queries), a.Cfg.Parallelism, func(i int) {
		tr, err := a.Exec.Trace(queries[i])
		if err != nil {
			errs[i] = err
			return
		}
		p.traces[i] = tr
		p.QueryUsage[i] = tr.Usage
		p.QueryCost[i] = tr.Usage.Cost(pricing)
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("core: measuring query %d: %w", i, err)
		}
	}
	return nil
}

// rewrittenUsage returns A(q|views) for workload query qi and how many
// subtrees the views replaced: the query's own usage when they replace
// none, else the usage composed from the query's trace, else — when
// composing cannot be exact (engine.Compose) — the executed usage of the
// rewritten plan, counted in core.pairs.executed.
func (a *Advisor) rewrittenUsage(p *Problem, qi int, views []*rewrite.View) (engine.Usage, int, error) {
	rw, reps := rewrite.Replace(p.Queries[qi], views)
	if len(reps) == 0 {
		return p.QueryUsage[qi], 0, nil
	}
	if u, ok := a.Exec.Compose(p.traces[qi], reps); ok {
		return u, len(reps), nil
	}
	obsPairsExecuted.Inc()
	u, err := a.Exec.Cost(rw)
	return u, len(reps), err
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

// Pair is one (associated query, candidate) pair of a Problem and,
// once metered, the query's usage with the candidate's view in place.
type Pair struct {
	Query     int          // index into Problem.Queries
	Candidate int          // index into Problem.Candidates
	Usage     engine.Usage // A(q|v); A(q) when the view replaced nothing
	Replaced  int          // subtrees of the query the view replaced
}

// fillBenefits populates p.benefits[ai][j] for associated query ai and
// candidate j under the configured estimator.
func (a *Advisor) fillBenefits(p *Problem) error {
	pricing := a.Cfg.Pricing
	pairs, assocIndex := p.benefitPairs()
	switch a.Cfg.Estimator {
	case EstimatorActual:
		if err := a.meter(p, pairs); err != nil {
			return err
		}
		p.metered = pairs
		for _, pr := range pairs {
			p.benefits[assocIndex[pr.Query]][pr.Candidate] = p.QueryCost[pr.Query] - pr.Usage.Cost(pricing)
		}
	case EstimatorOptimizer:
		opt := &costbase.OptimizerEstimator{Cat: a.Cat, Pricing: pricing}
		for _, pr := range pairs {
			est := opt.EstimateRewritten(p.Queries[pr.Query], p.Candidates[pr.Candidate].View.Plan)
			qEst := costbase.EstimatePlan(p.Queries[pr.Query], a.Cat).Usage().Cost(pricing)
			p.benefits[assocIndex[pr.Query]][pr.Candidate] = qEst - est
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

// benefitPairs allocates p.benefits (associated query × candidate) and
// returns p's pairs with each associated query's row in p.benefits.
func (p *Problem) benefitPairs() ([]Pair, map[int]int) {
	assocIndex := make(map[int]int, len(p.AssocQueries))
	for ai, qi := range p.AssocQueries {
		assocIndex[qi] = ai
	}
	p.benefits = make([][]float64, len(p.AssocQueries))
	for ai := range p.benefits {
		p.benefits[ai] = make([]float64, len(p.Candidates))
	}
	return p.pairs(), assocIndex
}

// pairs enumerates p's (associated query, candidate) pairs, unmetered:
// candidate by candidate, each over the queries of its cluster.
func (p *Problem) pairs() []Pair {
	var pairs []Pair
	for j, c := range p.Candidates {
		for _, qi := range c.Queries {
			pairs = append(pairs, Pair{Query: qi, Candidate: j})
		}
	}
	return pairs
}

// Pairs returns every (associated query, candidate) pair of p with its
// metered usage, candidate by candidate, each over its cluster's
// queries: the pairs BuildProblem metered under EstimatorActual (shared,
// not copied), else each metered now the same way. A(q) is
// p.QueryCost[Query] and A(v) the candidate's View.BuildUsage.
func (a *Advisor) Pairs(p *Problem) ([]Pair, error) {
	if p.metered != nil {
		return p.metered, nil
	}
	pairs := p.pairs()
	return pairs, a.meter(p, pairs)
}

// meter fills in each pair's Usage and Replaced, composing each from its
// query's trace (rewrittenUsage), fanned out over Cfg.Parallelism
// workers (nn.ParallelFor; 0 selects runtime.NumCPU()) that each write
// only their pair's slot. A pair that cannot be composed is executed;
// the executor only reads the store (views are already materialized)
// and each execution carries its own meter, so that is safe too.
func (a *Advisor) meter(p *Problem, pairs []Pair) error {
	obsPairsMeasured.Add(int64(len(pairs)))
	errs := make([]error, len(pairs))
	nn.ParallelFor(len(pairs), a.Cfg.Parallelism, func(i int) {
		pr := &pairs[i]
		pr.Usage, pr.Replaced, errs[i] = a.rewrittenUsage(p, pr.Query, []*rewrite.View{p.Candidates[pr.Candidate].View})
	})
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("core: measuring rewritten pair: %w", err)
		}
	}
	return nil
}

// wideDeepBenefits measures a training fraction of pairs, trains W-D on
// them (Algorithm 1), and predicts the rest.
func (a *Advisor) wideDeepBenefits(p *Problem, pairs []Pair, assocIndex map[int]int) error {
	set, err := a.wdTrainingSet(p, pairs, assocIndex)
	if err != nil {
		return err
	}
	model := widedeep.New(set.vocab, a.Cfg.WDModel, rand.New(rand.NewSource(a.Cfg.Seed)))
	trainCfg := a.Cfg.WDTrain
	trainCfg.Parallelism = a.Cfg.Parallelism
	if _, err := model.Fit(set.samples, trainCfg); err != nil {
		return err
	}
	p.Model = model

	// The held-out pairs: one batched forward.
	scale := p.CostScale()
	var held []Pair
	var fs []featenc.Features
	for i, pr := range pairs {
		if set.inTrain[i] {
			continue
		}
		held = append(held, pr)
		fs = append(fs, set.extract(pr))
	}
	for k, predicted := range model.PredictBatch(fs, a.Cfg.Parallelism) {
		pr := held[k]
		p.benefits[assocIndex[pr.Query]][pr.Candidate] = p.QueryCost[pr.Query] - predicted/scale
	}
	return nil
}

// wdTraining is W-D's training set over a problem's pairs.
type wdTraining struct {
	vocab   *featenc.Vocab // every plan keyword of the problem's queries
	samples []widedeep.Sample
	inTrain map[int]bool // pair indices measured and trained on
	// extract returns a pair's features, precomputing each query's and
	// candidate's plan-local features once for all pairs.
	extract func(Pair) featenc.Features
}

// wdTrainingSet splits pairs into a training fraction and the rest,
// measures the training pairs, records their measured benefits, and
// returns them as W-D samples.
func (a *Advisor) wdTrainingSet(p *Problem, pairs []Pair, assocIndex map[int]int) (*wdTraining, error) {
	frac := a.Cfg.TrainFraction
	if frac <= 0 || frac > 1 {
		frac = 0.7
	}
	trainIdx, _, _ := metrics.Split(len(pairs), frac, 0, a.Cfg.Seed)
	set := &wdTraining{inTrain: make(map[int]bool, len(trainIdx))}
	for _, i := range trainIdx {
		set.inTrain[i] = true
	}
	var trainPairs []Pair
	for i, pr := range pairs {
		if set.inTrain[i] {
			trainPairs = append(trainPairs, pr)
		}
	}

	// Shared vocabulary across plans.
	set.vocab = featenc.NewVocab(a.Cat, featenc.CollectPlanKeywords(p.Queries))

	if err := a.meter(p, trainPairs); err != nil {
		return nil, err
	}
	// Every pair, trained on or held out: plan-local features once per
	// query and per candidate, one extractor.
	ex := featenc.NewBatchExtractor(a.Cat)
	qFeat := make([]*featenc.PlanFeat, len(p.Queries))
	vFeat := make([]*featenc.PlanFeat, len(p.Candidates))
	set.extract = func(pr Pair) featenc.Features {
		if qFeat[pr.Query] == nil {
			qFeat[pr.Query] = featenc.Precompute(p.Queries[pr.Query])
		}
		if vFeat[pr.Candidate] == nil {
			vFeat[pr.Candidate] = featenc.Precompute(p.Candidates[pr.Candidate].View.Plan)
		}
		return ex.ExtractPre(qFeat[pr.Query], vFeat[pr.Candidate])
	}
	scale := p.CostScale()
	pricing := a.Cfg.Pricing
	for _, pr := range trainPairs {
		cost := pr.Usage.Cost(pricing)
		set.samples = append(set.samples, widedeep.Sample{F: set.extract(pr), Y: cost * scale})
		// Training pairs use their measured benefit directly.
		p.benefits[assocIndex[pr.Query]][pr.Candidate] = p.QueryCost[pr.Query] - cost
	}
	if len(set.samples) == 0 {
		return nil, fmt.Errorf("core: no W-D training pairs (workload too small?)")
	}
	return set, nil
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
