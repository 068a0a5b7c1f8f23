package core

import (
	"autoview/internal/mvs"
	"autoview/internal/plan"
	"autoview/internal/rewrite"
	"autoview/internal/rl"
	"bytes"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"autoview/internal/engine"
	"autoview/internal/metrics"
	"autoview/internal/obs"
	"autoview/internal/workload"
)

// smallWK builds a compact workload for pipeline tests.
func smallWK() *workload.Workload {
	return workload.WK(workload.WKParams{
		Name:             "mini",
		Projects:         4,
		FactsPerProject:  2,
		DimsPerProject:   1,
		Queries:          60,
		FragsPerProject:  3,
		Skew:             1.2,
		ThreeWayFraction: 0.2,
		RowSkew:          1.5,
		Seed:             77,
	})
}

func newAdvisor(t *testing.T, w *workload.Workload, cfg Config) *Advisor {
	t.Helper()
	st := w.Populate()
	return NewAdvisor(w.Cat, engine.New(st), cfg)
}

func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Estimator = EstimatorActual
	cfg.WDTrain.Epochs = 3
	cfg.RL.Epochs = 5
	cfg.RL.InitIterations = 5
	cfg.Iter.Iterations = 20
	return cfg
}

func TestPreprocessFindsCandidates(t *testing.T) {
	w := smallWK()
	a := newAdvisor(t, w, fastConfig())
	pre := a.Preprocess(w.Plans())
	if len(pre.Candidates) == 0 {
		t.Fatal("no candidates on a sharing-heavy workload")
	}
	if len(pre.AssociatedQueries) == 0 {
		t.Fatal("no associated queries")
	}
}

func TestBuildProblemActualBenefits(t *testing.T) {
	w := smallWK()
	a := newAdvisor(t, w, fastConfig())
	pre := a.Preprocess(w.Plans())
	p, err := a.BuildProblem(w.Plans(), pre)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Instance.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Instance.NumViews() != len(pre.Candidates) {
		t.Errorf("views %d != candidates %d", p.Instance.NumViews(), len(pre.Candidates))
	}
	if p.Instance.NumQueries() != len(pre.AssociatedQueries) {
		t.Errorf("instance queries %d != associated %d", p.Instance.NumQueries(), len(pre.AssociatedQueries))
	}
	// Actual benefits must be positive for at least some applicable
	// pairs (views save work), and zero for inapplicable pairs.
	positives := 0
	for ai, qi := range p.AssocQueries {
		applicable := map[int]bool{}
		for j, c := range p.Candidates {
			for _, q := range c.Queries {
				if q == qi {
					applicable[j] = true
				}
			}
		}
		for j, b := range p.Instance.Benefit[ai] {
			if !applicable[j] && b != 0 {
				t.Fatalf("inapplicable pair (%d,%d) has benefit %v", qi, j, b)
			}
			if b > 0 {
				positives++
			}
		}
	}
	if positives == 0 {
		t.Error("no positive benefits measured")
	}
	// Overheads are positive.
	for j, o := range p.Instance.Overhead {
		if o <= 0 {
			t.Errorf("candidate %d overhead %v", j, o)
		}
	}
	// Each raw query is metered once; its price is that usage's.
	if len(p.QueryUsage) != len(p.Queries) || len(p.QueryCost) != len(p.Queries) {
		t.Fatalf("%d usages, %d costs for %d queries", len(p.QueryUsage), len(p.QueryCost), len(p.Queries))
	}
	for i, u := range p.QueryUsage {
		if u.Cost(a.Cfg.Pricing) != p.QueryCost[i] {
			t.Fatalf("query %d: usage prices to %v, QueryCost is %v", i, u.Cost(a.Cfg.Pricing), p.QueryCost[i])
		}
	}
}

func TestSelectAllMethodsFeasible(t *testing.T) {
	w := smallWK()
	a := newAdvisor(t, w, fastConfig())
	pre := a.Preprocess(w.Plans())
	p, err := a.BuildProblem(w.Plans(), pre)
	if err != nil {
		t.Fatal(err)
	}
	for _, sk := range []SelectorKind{
		SelectorRLView, SelectorBigSub, SelectorIterView,
		SelectorTopkFreq, SelectorTopkOver, SelectorTopkBen, SelectorTopkNorm,
	} {
		a.Cfg.Selector = sk
		sel, err := a.Select(p)
		if err != nil {
			t.Fatalf("%v: %v", sk, err)
		}
		if sel.Method == "" || len(sel.Z) != p.Instance.NumViews() {
			t.Errorf("%v: malformed selection %+v", sk, sel)
		}
		if math.IsNaN(sel.Utility) {
			t.Errorf("%v: NaN utility", sk)
		}
		// Utility must agree with re-evaluating Z on the instance.
		if got := p.Instance.UtilityOfZ(sel.Z); got < sel.Utility-1e-6 {
			t.Errorf("%v: reported utility %v exceeds achievable %v", sk, sel.Utility, got)
		}
	}
}

func TestEndToEndActualRLView(t *testing.T) {
	w := smallWK()
	cfg := fastConfig()
	a := newAdvisor(t, w, cfg)
	rep, err := a.Run(w.Plans())
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumQueries != 60 {
		t.Errorf("NumQueries = %d", rep.NumQueries)
	}
	if rep.RawCost <= 0 {
		t.Error("raw cost not measured")
	}
	if rep.NumViews == 0 {
		t.Error("no views selected on a sharing-heavy workload")
	}
	if rep.RewrittenQueries == 0 {
		t.Error("no queries rewritten")
	}
	if rep.RewriteBenefit <= 0 {
		t.Errorf("rewrite benefit = %v, want positive", rep.RewriteBenefit)
	}
	if rep.SavedRatio <= 0 {
		t.Errorf("saved ratio = %v, want positive", rep.SavedRatio)
	}
	if rep.RewrittenCost >= rep.RawCost {
		t.Errorf("rewritten cost %v should undercut raw %v", rep.RewrittenCost, rep.RawCost)
	}
}

func TestEndToEndWideDeep(t *testing.T) {
	w := smallWK()
	cfg := fastConfig()
	cfg.Estimator = EstimatorWideDeep
	cfg.WDTrain.Epochs = 4
	cfg.WDTrain.BatchSize = 16
	a := newAdvisor(t, w, cfg)
	rep, err := a.Run(w.Plans())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Estimator != "W-D" {
		t.Errorf("estimator label = %s", rep.Estimator)
	}
	if rep.SavedRatio <= 0 {
		t.Errorf("W-D pipeline saved ratio = %v, want positive", rep.SavedRatio)
	}
}

func TestEndToEndOptimizerEstimator(t *testing.T) {
	w := smallWK()
	cfg := fastConfig()
	cfg.Estimator = EstimatorOptimizer
	a := newAdvisor(t, w, cfg)
	rep, err := a.Run(w.Plans())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Estimator != "Optimizer" {
		t.Errorf("estimator label = %s", rep.Estimator)
	}
	// The analytic estimator is noisier but the pipeline must still
	// produce a coherent report.
	if rep.NumViews == 0 || rep.RewrittenQueries == 0 {
		t.Errorf("optimizer pipeline selected nothing: %+v", rep)
	}
}

func TestRunNoCandidates(t *testing.T) {
	// A workload with no sharing yields an empty, non-failing report.
	w := workload.WK(workload.WKParams{
		Name: "lonely", Projects: 2, FactsPerProject: 1, DimsPerProject: 1,
		Queries: 2, FragsPerProject: 1, Skew: 1, Seed: 5,
	})
	// Keep only one query per project to remove sharing.
	w.Queries = w.Queries[:1]
	a := newAdvisor(t, w, fastConfig())
	rep, err := a.Run(w.Plans())
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumViews != 0 || rep.SavedRatio != 0 {
		t.Errorf("expected empty report, got %+v", rep)
	}
}

func TestDefaultConfigMatchesTableII(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Pricing.Alpha != 1.67e-5 || cfg.Pricing.Beta != 1e-1 || cfg.Pricing.Gamma != 1e-3 {
		t.Error("pricing constants deviate from Table II")
	}
	if cfg.WDTrain.Epochs != 50 || cfg.WDTrain.LearnRate != 0.01 || cfg.WDTrain.BatchSize != 8 {
		t.Error("JOB training defaults deviate from Table II")
	}
	if cfg.RL.InitIterations != 10 || cfg.RL.Epochs != 90 || cfg.RL.MemoryThreshold != 20 {
		t.Error("RL defaults deviate from Table II (n1=10, n2=90, nm=20)")
	}
	if cfg.RL.Agent.Gamma != 0.9 {
		t.Error("reward decay deviates from Table II (γ=0.9)")
	}
	wk := WKConfig()
	if wk.WDTrain.Epochs != 20 || wk.WDTrain.LearnRate != 0.005 || wk.WDTrain.BatchSize != 128 {
		t.Error("WK training defaults deviate from Table II")
	}
}

func TestReportString(t *testing.T) {
	r := &Report{Estimator: "W-D", Selector: "RLView", NumQueries: 3, SavedRatio: 12.02}
	s := r.String()
	if s == "" {
		t.Fatal("empty report string")
	}
}

func TestEveryCandidateRewritesItsQueries(t *testing.T) {
	// Integration invariant: a candidate's Queries list promises that a
	// view built on it can rewrite each of those queries. If matching
	// (normalized fingerprints) and clustering (equivalence classes)
	// ever diverge, benefits silently vanish — this pins them together.
	w := smallWK()
	a := newAdvisor(t, w, fastConfig())
	pre := a.Preprocess(w.Plans())
	p, err := a.BuildProblem(w.Plans(), pre)
	if err != nil {
		t.Fatal(err)
	}
	for j, cand := range p.Candidates {
		for _, qi := range cand.Queries {
			_, n := rewriteWith(p, qi, j)
			if n == 0 {
				t.Fatalf("candidate %d (view %s) cannot rewrite query %d despite sharing its cluster",
					j, cand.View.ID, qi)
			}
		}
	}
}

func rewriteWith(p *Problem, qi, j int) (*plan.Node, int) {
	return rewrite.Rewrite(p.Queries[qi], []*rewrite.View{p.Candidates[j].View})
}

func TestRewriteMatchesEquivalentSpelling(t *testing.T) {
	// A query spelling the subquery differently (stacked filter over a
	// derived table) must still be rewritten by the view built on the
	// flat form.
	w := smallWK()
	a := newAdvisor(t, w, fastConfig())
	cat := w.Cat
	fact := cat.Tables()[1].Name // a fact table
	flat, err := plan.Parse(
		"select key, val from "+fact+" where cat = 1 and dt = 'v2'", cat)
	if err != nil {
		t.Fatal(err)
	}
	stacked, err := plan.Parse(
		"select s.attr, count(*) as n from ( select u.key, u.val from ( select key, val, dt from "+fact+" where cat = 1 ) u where u.dt = 'v2' ) v inner join ( select id, attr from "+cat.Tables()[0].Name+" where grp = 3 ) s on v.key = s.id group by s.attr", cat)
	if err != nil {
		t.Fatal(err)
	}
	v, err := a.Mgr.Materialize(flat)
	if err != nil {
		t.Fatal(err)
	}
	_, n := rewrite.Rewrite(stacked, []*rewrite.View{v})
	if n != 1 {
		t.Fatalf("equivalent spelling not rewritten (%d replacements)", n)
	}
}

// TestRLViewOfflinePathIsExplicit walks the paper's DQN-offline path the
// way a caller spells it: day 1's selection hands over its replay pool,
// the pool survives SaveReplay/LoadReplay unchanged, and day 2 fine-tunes
// the agent OfflineTrain built from it.
func TestRLViewOfflinePathIsExplicit(t *testing.T) {
	w := smallWK()
	cfg := fastConfig()
	cfg.Selector = SelectorRLView
	a := newAdvisor(t, w, cfg)
	pre := a.Preprocess(w.Plans())
	p, err := a.BuildProblem(w.Plans(), pre)
	if err != nil {
		t.Fatal(err)
	}
	day1, err := a.Select(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(day1.Replay) == 0 {
		t.Fatal("RLView selection carries no replay pool")
	}
	var store bytes.Buffer
	if err := rl.SaveReplay(&store, day1.Replay); err != nil {
		t.Fatal(err)
	}
	pool, err := rl.LoadReplay(&store)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pool, day1.Replay) {
		t.Fatal("replay pool changed across SaveReplay/LoadReplay")
	}
	agent, err := rl.OfflineTrain(pool, cfg.RL.Agent, 50)
	if err != nil {
		t.Fatal(err)
	}
	a.Cfg.RL.Pretrained = agent
	sel, err := a.Select(p)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Method != "RLView" || len(sel.Z) != p.Instance.NumViews() {
		t.Fatalf("pretrained selection malformed: %+v", sel)
	}
	if !p.Instance.Feasible(&mvs.State{Z: sel.Z, Y: mustBestY(p, sel.Z)}) {
		t.Error("pretrained selection infeasible")
	}
	if len(sel.Replay) == 0 || &sel.Replay[0] != &agent.Memory()[0] {
		t.Error("day 2 did not fine-tune the pretrained agent")
	}
}

// TestAdviseCyclesLeaveNothingBehind: one advisor, four RLView advise
// cycles over the same window, as a daemon runs them. The live heap must
// not grow by a replay pool per cycle (the advisor used to keep a
// flattened copy of every cycle's pool, and a record of every measured
// pair, for its whole life), and re-advising the same queries must
// materialize no further views.
func TestAdviseCyclesLeaveNothingBehind(t *testing.T) {
	w := smallWK()
	cfg := fastConfig()
	cfg.Selector = SelectorRLView
	a := newAdvisor(t, w, cfg)
	var heap [5]uint64
	var views [5]int
	var replayBytes uint64
	for cycle := 1; cycle <= 4; cycle++ {
		p, sel, err := a.Advise(w.Plans())
		if err != nil {
			t.Fatal(err)
		}
		replayBytes = uint64(len(sel.Replay) * p.Instance.NumViews() * rl.FeatureDim * 8)
		p, sel = nil, nil
		// Twice: a sync.Pool's contents (the DQN's inference arenas)
		// survive one collection in its victim cache.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heap[cycle], views[cycle] = ms.HeapAlloc, len(a.Mgr.Views())
	}
	if replayBytes == 0 {
		t.Fatal("RLView selection carries no replay pool")
	}
	if heap[4] >= heap[2]+replayBytes {
		t.Errorf("live heap grew %d bytes from cycle 2 to cycle 4; one cycle's replay is %d",
			heap[4]-heap[2], replayBytes)
	}
	if views[4] != views[1] {
		t.Errorf("materialized views per cycle %v, want constant", views[1:])
	}
}

func mustBestY(p *Problem, z []bool) [][]bool {
	y, _ := p.Instance.BestY(z)
	return y
}

func TestApplyPrefersOutermostView(t *testing.T) {
	// When both a join view and its contained fragment view are
	// selected, Apply must rewrite with the join view (outermost match)
	// and still produce a coherent report.
	w := smallWK()
	a := newAdvisor(t, w, fastConfig())
	pre := a.Preprocess(w.Plans())
	p, err := a.BuildProblem(w.Plans(), pre)
	if err != nil {
		t.Fatal(err)
	}
	// Find an overlapping pair (join candidate ⊃ fragment candidate).
	var jv, fv = -1, -1
	for x := range p.Candidates {
		for y := range p.Candidates {
			if x != y && p.Instance.Overlap[x][y] &&
				p.Candidates[x].Plan.Count() > p.Candidates[y].Plan.Count() {
				jv, fv = x, y
			}
		}
	}
	if jv < 0 {
		t.Skip("workload has no overlapping candidate pair")
	}
	z := make([]bool, p.Instance.NumViews())
	z[jv], z[fv] = true, true
	rep, err := a.Apply(p, &Selection{Method: "manual", Z: z})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumViews != 2 {
		t.Errorf("NumViews = %d, want 2", rep.NumViews)
	}
	if rep.RewrittenQueries == 0 {
		t.Error("no queries rewritten with the overlapping pair")
	}
}

// TestApplyParallelDeterminism: Apply fans its per-query rewrite and
// metering out over Cfg.Parallelism workers and reduces in query order,
// so every float of the report — hence the printed line and r_c — must
// be the same bit pattern on one worker and on four. It runs under -race
// -short on purpose: Apply spawns goroutines.
func TestApplyParallelDeterminism(t *testing.T) {
	w := smallWK()
	a := newAdvisor(t, w, fastConfig())
	p, err := a.BuildProblem(w.Plans(), a.Preprocess(w.Plans()))
	if err != nil {
		t.Fatal(err)
	}
	a.Cfg.Selector = SelectorLocalSearch
	sel, err := a.Select(p)
	if err != nil {
		t.Fatal(err)
	}
	applyAt := func(workers int) *Report {
		a.Cfg.Parallelism = workers
		rep, err := a.Apply(p, sel)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	one, four := applyAt(1), applyAt(4)
	if *one != *four {
		t.Fatalf("reports differ:\nParallelism=1 %+v\nParallelism=4 %+v", *one, *four)
	}
	if one.String() != four.String() {
		t.Fatalf("report lines differ:\n%s\n%s", one, four)
	}
	if one.RewrittenQueries == 0 || one.RawLatency <= 0 || one.RewrittenLatency >= one.RawLatency {
		t.Fatalf("degenerate report: %+v", *one)
	}
}

// TestApplyMatchesReexecution: Apply takes A(q) from BuildProblem for a
// query no selected view rewrites instead of executing it again; its
// report must be, bit for bit, the one built by executing every query,
// rewritten or not, for a selector's pick, for every candidate at once
// and for none.
func TestApplyMatchesReexecution(t *testing.T) {
	w := smallWK()
	a := newAdvisor(t, w, fastConfig())
	p, err := a.BuildProblem(w.Plans(), a.Preprocess(w.Plans()))
	if err != nil {
		t.Fatal(err)
	}
	a.Cfg.Selector = SelectorLocalSearch
	picked, err := a.Select(p)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]bool, len(p.Candidates))
	for j := range all {
		all[j] = true
	}
	for _, sel := range []*Selection{picked, {Method: "all", Z: all}, {Method: "none", Z: make([]bool, len(p.Candidates))}} {
		got, err := a.Apply(p, sel)
		if err != nil {
			t.Fatal(err)
		}
		pricing := a.Cfg.Pricing
		want := Report{
			Estimator:  a.Cfg.Estimator.String(),
			Selector:   sel.Method,
			NumQueries: len(p.Queries),
			Selection:  sel,
		}
		var views []*rewrite.View
		for j, z := range sel.Z {
			if z {
				views = append(views, p.Candidates[j].View)
				want.NumViews++
				want.ViewOverhead += p.Candidates[j].View.Overhead(pricing)
			}
		}
		unrewritten := 0
		for i, q := range p.Queries {
			rw, n := rewrite.Rewrite(q, views)
			u, err := a.Exec.Cost(rw)
			if err != nil {
				t.Fatal(err)
			}
			want.RawCost += p.QueryCost[i]
			want.RawLatency += p.QueryUsage[i].CPUMinutes(pricing)
			cost := u.Cost(pricing)
			want.RewrittenCost += cost
			want.RewrittenLatency += u.CPUMinutes(pricing)
			if n > 0 {
				want.RewrittenQueries++
				want.RewriteBenefit += p.QueryCost[i] - cost
			} else {
				unrewritten++
			}
		}
		want.SavedRatio = metrics.SavedCostRatio(want.RewriteBenefit, want.ViewOverhead, want.RawCost)
		if *got != want {
			t.Fatalf("%s: Apply's report differs from re-executing every query:\nApply %+v\nre-executed %+v", sel.Method, *got, want)
		}
		if sel.Method != "all" && unrewritten == 0 {
			t.Fatalf("%s: every query was rewritten, so no measured A(q) was reused", sel.Method)
		}
	}
}

// TestFitProgressCallback pins that the advisor's WDTrain settings reach
// Fit: a run with WDTrain.Epochs = 3 trains exactly three epochs, as
// counted by wd.train.epochs.
func TestFitProgressCallback(t *testing.T) {
	w := smallWK()
	cfg := fastConfig()
	cfg.Estimator = EstimatorWideDeep
	cfg.WDTrain.Epochs = 3
	epochs := obs.Default.Counter("wd.train.epochs", "")
	before := epochs.Value()
	a := newAdvisor(t, w, cfg)
	if _, err := a.Run(w.Plans()); err != nil {
		t.Fatal(err)
	}
	if got := epochs.Value() - before; got != 3 {
		t.Errorf("the run trained %d epochs, want 3", got)
	}
}

// TestMeasureQueryCostsFanOut: the raw-cost measurement fans out over
// Cfg.Parallelism workers, yet every worker count yields the serial
// run's usages in query order, and of two failing queries the
// lower-indexed one is reported whichever worker meets it first.
func TestMeasureQueryCostsFanOut(t *testing.T) {
	w := smallWK()
	queries := w.Plans()
	var serial *Problem
	for _, par := range []int{1, 2, 8} {
		cfg := fastConfig()
		cfg.Parallelism = par
		a := newAdvisor(t, w, cfg)
		p := &Problem{}
		if err := a.measureQueryCosts(p, queries); err != nil {
			t.Fatal(err)
		}
		if serial == nil {
			serial = p
		} else if !reflect.DeepEqual(p.QueryUsage, serial.QueryUsage) || !reflect.DeepEqual(p.QueryCost, serial.QueryCost) {
			t.Fatalf("Parallelism %d: measurements differ from the serial run", par)
		}
		bad := append([]*plan.Node(nil), queries...)
		bad[len(bad)-1] = &plan.Node{Op: plan.OpScan, Table: "missing"}
		bad[7] = bad[len(bad)-1]
		err := a.measureQueryCosts(&Problem{}, bad)
		if err == nil || !strings.Contains(err.Error(), "query 7:") {
			t.Fatalf("Parallelism %d: error %v, want query 7's", par, err)
		}
	}
}
