package core

import (
	"errors"
	"fmt"
	"runtime"

	"autoview/internal/engine"
	"autoview/internal/metrics"
	"autoview/internal/nn"
	"autoview/internal/obs"
	"autoview/internal/plan"
	"autoview/internal/rewrite"
)

// Report is the end-to-end outcome in Table V's terms.
type Report struct {
	Estimator string
	Selector  string

	// Raw workload.
	NumQueries int     // #q
	RawCost    float64 // c_q ($)
	RawLatency float64 // l_q: single-core CPU minutes as the latency proxy

	// Materialized views.
	NumViews     int     // #m
	ViewOverhead float64 // o_m ($): build + storage of the selected views

	// Rewritten workload.
	RewrittenQueries int     // #(q|v): queries that used at least one view
	RewriteBenefit   float64 // b_{q|v} ($): Σ (A(q) − A(q|v)) measured
	RewrittenLatency float64 // l_q of the rewritten workload
	RewrittenCost    float64 // total measured cost of the rewritten workload

	// SavedRatio is r_c = (b_{q|v} − o_m)/c_q ·100%.
	SavedRatio float64

	// Selection carries the selection stage's result.
	Selection *Selection
}

// String renders one Table V style row.
func (r *Report) String() string {
	return fmt.Sprintf("%s+%s: #q=%d cq=$%.4f | #m=%d om=$%.4f | #(q|v)=%d bq|v=$%.4f | rc=%.2f%%",
		r.Estimator, r.Selector, r.NumQueries, r.RawCost,
		r.NumViews, r.ViewOverhead, r.RewrittenQueries, r.RewriteBenefit, r.SavedRatio)
}

// Apply rewrites every workload query with all selected views at once,
// executes the rewritten plans, and reports the measured end-to-end
// savings. Which of several overlapping views serves a query is
// rewrite.Rewrite's outermost-first rule, not a per-query Y-Opt over
// measured benefits. Queries are rewritten and executed in parallel (the
// executor only reads the store; each execution has its own meter) into
// per-query slots that are summed in query order, so the report is
// bit-identical at any GOMAXPROCS. The raw side comes from BuildProblem's
// measurements; raw queries are not executed again.
func (a *Advisor) Apply(p *Problem, sel *Selection) (*Report, error) {
	defer obs.StartSpan("advisor.rewrite")()
	pricing := a.Cfg.Pricing
	rep := &Report{
		Estimator:  a.Cfg.Estimator.String(),
		Selector:   sel.Method,
		NumQueries: len(p.Queries),
		Selection:  sel,
	}

	// Selected views, with overheads measured on the real builds.
	var selected []*rewrite.View
	for j, z := range sel.Z {
		if !z {
			continue
		}
		v := p.Candidates[j].View
		selected = append(selected, v)
		rep.NumViews++
		rep.ViewOverhead += v.Overhead(pricing)
	}

	usage := make([]engine.Usage, len(p.Queries))
	replaced := make([]int, len(p.Queries))
	errs := make([]error, len(p.Queries))
	nn.ParallelFor(len(p.Queries), runtime.GOMAXPROCS(0), func(i int) {
		var rw *plan.Node
		rw, replaced[i] = rewrite.Rewrite(p.Queries[i], selected)
		usage[i], errs[i] = a.Exec.Cost(rw)
	})
	for i, u := range usage {
		if errs[i] != nil {
			return nil, errs[i]
		}
		rep.RawCost += p.QueryCost[i]
		rep.RawLatency += p.QueryUsage[i].CPUMinutes(pricing)
		cost := u.Cost(pricing)
		rep.RewrittenCost += cost
		rep.RewrittenLatency += u.CPUMinutes(pricing)
		if replaced[i] > 0 {
			rep.RewrittenQueries++
			rep.RewriteBenefit += p.QueryCost[i] - cost
		}
	}
	rep.SavedRatio = metrics.SavedCostRatio(rep.RewriteBenefit, rep.ViewOverhead, rep.RawCost)
	obsSavedRatio.Set(rep.SavedRatio)
	obs.Info("advisor.report",
		"estimator", rep.Estimator, "selector", rep.Selector,
		"queries", rep.NumQueries, "views", rep.NumViews,
		"rewritten", rep.RewrittenQueries, "benefit", rep.RewriteBenefit,
		"overhead", rep.ViewOverhead, "saved_ratio", rep.SavedRatio)
	return rep, nil
}

// Run executes the full pipeline: pre-process, estimate, select, apply.
func (a *Advisor) Run(queries []*plan.Node) (*Report, error) {
	p, sel, err := a.Advise(queries)
	if errors.Is(err, ErrNoCandidates) {
		obs.Warn("advisor.run", "reason", "no candidates", "queries", len(queries))
		return &Report{
			Estimator:  a.Cfg.Estimator.String(),
			Selector:   a.Cfg.Selector.String(),
			NumQueries: len(queries),
			Selection:  &Selection{Method: a.Cfg.Selector.String()},
		}, nil
	}
	if err != nil {
		return nil, err
	}
	rep, err := a.Apply(p, sel)
	if err != nil {
		return nil, err
	}
	obsRuns.Inc()
	return rep, nil
}
