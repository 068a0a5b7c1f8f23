// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI) on the laptop-scale workloads. Each experiment
// returns a structured result plus a formatted rendering; cmd/experiments
// prints them and experiments_test.go asserts the paper's claims on them.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"autoview/internal/core"
	"autoview/internal/equiv"
	"autoview/internal/workload"
)

// Scale trades fidelity for runtime: Quick shrinks workloads and training
// budgets (used by benchmarks and CI); Full uses the Table II defaults.
type Scale int

const (
	// Quick is the reduced-budget mode.
	Quick Scale = iota
	// Full runs the Table II budgets.
	Full
)

// Workloads returns the three evaluation workloads, shrunk under Quick.
// Each scale's workloads are generated once per process; every call
// returns the same three, so the ground-truth problem built over one of
// them serves every experiment that asks for it.
func Workloads(s Scale) []*workload.Workload {
	memo.Lock()
	defer memo.Unlock()
	ws, ok := memo.workloads[s]
	if !ok {
		ws = generateWorkloads(s)
		memo.workloads[s] = ws
	}
	return append([]*workload.Workload(nil), ws...)
}

func generateWorkloads(s Scale) []*workload.Workload {
	if s == Full {
		return []*workload.Workload{workload.JOB(), workload.WK1(), workload.WK2()}
	}
	return []*workload.Workload{
		workload.JOB(),
		workload.WK(workload.WKParams{
			Name: "WK1", Projects: 10, FactsPerProject: 2, DimsPerProject: 1,
			Queries: 200, FragsPerProject: 3, Skew: 1.4, ThreeWayFraction: 0.15,
			RowSkew: 2.5, UniqueFraction: 0.45, Seed: 42,
		}),
		workload.WK(workload.WKParams{
			Name: "WK2", Projects: 12, FactsPerProject: 2, DimsPerProject: 1,
			Queries: 320, FragsPerProject: 4, Skew: 0.7, ThreeWayFraction: 0.45,
			RowSkew: 1.2, UniqueFraction: 0.35, Seed: 43,
		}),
	}
}

// memo holds what the experiments share within one process: each
// scale's workloads and each (workload, scale)'s ground-truth problem.
// The experiments only read a problem, never change it.
var memo = struct {
	sync.Mutex
	workloads map[Scale][]*workload.Workload
	problems  map[problemKey]*groundTruth
}{
	workloads: map[Scale][]*workload.Workload{},
	problems:  map[problemKey]*groundTruth{},
}

type problemKey struct {
	w *workload.Workload
	s Scale
}

// groundTruth is one memoized groundTruthProblem result.
type groundTruth struct {
	once sync.Once
	adv  *core.Advisor
	p    *core.Problem
	err  error
}

// configFor returns the pipeline configuration for a workload name.
func configFor(name string, s Scale) core.Config {
	cfg := core.ConfigFor(name)
	if s == Quick {
		// Quick-scale data sets are ~100-500 pairs; Table II's WK batch
		// size (128) would give one optimizer step per epoch, so the
		// batch shrinks with the budget.
		cfg.WDTrain.Epochs = 25
		cfg.WDTrain.BatchSize = min(cfg.WDTrain.BatchSize, 16)
		cfg.RL.Epochs = min(cfg.RL.Epochs, 40)
		cfg.RL.LearnEvery = 2
		cfg.Iter.Iterations = min(cfg.Iter.Iterations, 60)
	}
	return cfg
}

// groundTruthProblem assembles the ILP instance with measured benefits,
// once per workload and scale.
func groundTruthProblem(w *workload.Workload, s Scale) (*core.Advisor, *core.Problem, error) {
	memo.Lock()
	g, ok := memo.problems[problemKey{w, s}]
	if !ok {
		g = &groundTruth{}
		memo.problems[problemKey{w, s}] = g
	}
	memo.Unlock()
	g.once.Do(func() {
		cfg := configFor(w.Name, s)
		cfg.Estimator = core.EstimatorActual
		var pre *equiv.Result
		g.adv, pre = core.BringUp(w, cfg)
		g.p, g.err = g.adv.BuildProblem(w.Plans(), pre)
	})
	return g.adv, g.p, g.err
}

// Fig1Result is Figure 1's data: per-project redundancy and the
// cumulative percentage curve.
type Fig1Result struct {
	Rows       []workload.ProjectRedundancy
	Cumulative []float64
}

// Fig1 analyzes redundant computation on the multi-project workload
// (Figure 1 uses six Alibaba projects; we use the WK1-style generator).
func Fig1(s Scale) (*Fig1Result, error) {
	w := Workloads(s)[1]
	pre := equiv.Preprocess(w.Plans(), nil)
	rows := w.Redundancy(pre)
	return &Fig1Result{Rows: rows, Cumulative: workload.CumulativeRedundancy(rows)}, nil
}

// Render formats Figure 1's panels as text.
func (r *Fig1Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 1(a): total vs redundant queries per project\n")
	rows := append([]workload.ProjectRedundancy(nil), r.Rows...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Total > rows[j].Total })
	n := len(rows)
	if n > 6 {
		n = 6
	}
	for _, row := range rows[:n] {
		fmt.Fprintf(&b, "  %-6s total=%-4d redundant=%-4d (%.0f%%)\n",
			row.Project, row.Total, row.Redundant, 100*float64(row.Redundant)/float64(row.Total))
	}
	b.WriteString("Figure 1(b): cumulative redundancy percentage by projects included\n  ")
	for i, v := range r.Cumulative {
		if i%4 == 0 {
			fmt.Fprintf(&b, "[%d]%.1f%% ", i+1, v)
		}
	}
	b.WriteString("\n")
	return b.String()
}

// Tab1Result is Table I: workload statistics.
type Tab1Result struct {
	Stats []workload.Stats
	Names []string
}

// Tab1 computes the workload statistics table.
func Tab1(s Scale) (*Tab1Result, error) {
	res := &Tab1Result{}
	for _, w := range Workloads(s) {
		pre := equiv.Preprocess(w.Plans(), nil)
		res.Stats = append(res.Stats, w.Describe(pre))
		res.Names = append(res.Names, w.Name)
	}
	return res, nil
}

// Render formats Table I.
func (r *Tab1Result) Render() string {
	var b strings.Builder
	b.WriteString("Table I: workload datasets\n")
	fmt.Fprintf(&b, "  %-22s", "workloads")
	for _, n := range r.Names {
		fmt.Fprintf(&b, "%12s", n)
	}
	b.WriteString("\n")
	row := func(label string, get func(workload.Stats) string) {
		fmt.Fprintf(&b, "  %-22s", label)
		for _, st := range r.Stats {
			fmt.Fprintf(&b, "%12s", get(st))
		}
		b.WriteString("\n")
	}
	row("# project / # table", func(s workload.Stats) string { return fmt.Sprintf("%d/%d", s.Projects, s.Tables) })
	row("# query / # subquery", func(s workload.Stats) string { return fmt.Sprintf("%d/%d", s.Queries, s.Subqueries) })
	row("# equivalent pairs", func(s workload.Stats) string { return fmt.Sprintf("%d", s.EquivalentPairs) })
	row("# candidate (|Z|)", func(s workload.Stats) string { return fmt.Sprintf("%d", s.Candidates) })
	row("# associated (|Q|)", func(s workload.Stats) string { return fmt.Sprintf("%d", s.AssociatedQuery) })
	row("# overlapping pairs", func(s workload.Stats) string { return fmt.Sprintf("%d", s.OverlappingPairs) })
	return b.String()
}

// Tab2 renders the default parameters (Table II) as configured.
func Tab2() string {
	job := core.DefaultConfig()
	wk := core.WKConfig()
	var b strings.Builder
	b.WriteString("Table II: default parameters\n")
	fmt.Fprintf(&b, "  pricing: alpha=%.3g $/GB, beta=%.3g $/(core*min), gamma=%.3g $/(GB*min)\n",
		job.Pricing.Alpha, job.Pricing.Beta, job.Pricing.Gamma)
	fmt.Fprintf(&b, "  JOB: I=%d lr=%g bs=%d | n1=%d n2=%d nm=%d gamma=%.1f\n",
		job.WDTrain.Epochs, job.WDTrain.LearnRate, job.WDTrain.BatchSize,
		job.RL.InitIterations, job.RL.Epochs, job.RL.MemoryThreshold, job.RL.Agent.Gamma)
	fmt.Fprintf(&b, "  WK:  I=%d lr=%g bs=%d | n1=%d n2=%d nm=%d gamma=%.1f\n",
		wk.WDTrain.Epochs, wk.WDTrain.LearnRate, wk.WDTrain.BatchSize,
		wk.RL.InitIterations, wk.RL.Epochs, wk.RL.MemoryThreshold, wk.RL.Agent.Gamma)
	return b.String()
}
