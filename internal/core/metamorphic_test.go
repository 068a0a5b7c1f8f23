package core

import (
	"fmt"
	"slices"
	"testing"

	"autoview/internal/catalog"
	"autoview/internal/plan"
	"autoview/internal/workload"
)

// TestMetamorphicPricingScale: Definitions 1–3 are linear in α, β and
// γ, so doubling all three must double every price the pipeline
// computes and change no decision. On the mini workload and JOB (and
// full wk1 without -short), under the actual-cost estimator, every
// QueryCost, benefit and overhead must be exactly 2× — scaling by two
// is exact in binary floating point, so no tolerance — and each of
// local search, Top-kBen, IterView and BigSub must select the same views
// at exactly 2× the utility, with an equal r_c after Apply. RLView is
// left out: its reward is the utility change, so its Q-targets scale
// and Adam's ε and the gradient clip make its learned choices depend on
// the scale.
func TestMetamorphicPricingScale(t *testing.T) {
	ws := []*workload.Workload{smallWK(), workload.JOB()}
	if !testing.Short() {
		ws = append(ws, workload.WK1())
	}
	selectors := []SelectorKind{SelectorLocalSearch, SelectorTopkBen, SelectorIterView, SelectorBigSub}
	for _, w := range ws {
		build := func(scale float64) (*Advisor, *Problem) {
			cfg := fastConfig()
			cfg.Pricing.Alpha *= scale
			cfg.Pricing.Beta *= scale
			cfg.Pricing.Gamma *= scale
			a := newAdvisor(t, w, cfg)
			p, err := a.BuildProblem(w.Plans(), a.Preprocess(w.Plans()))
			if err != nil {
				t.Fatal(err)
			}
			return a, p
		}
		a1, p1 := build(1)
		a2, p2 := build(2)
		for i, c := range p1.QueryCost {
			if p2.QueryCost[i] != 2*c {
				t.Fatalf("%s: QueryCost[%d] = %v at 2× pricing, want 2×%v", w.Name, i, p2.QueryCost[i], c)
			}
		}
		in1, in2 := p1.Instance, p2.Instance
		if in1.NumViews() != in2.NumViews() || in1.NumQueries() != in2.NumQueries() {
			t.Fatalf("%s: instance %d×%d at 2× pricing, want %d×%d", w.Name,
				in2.NumQueries(), in2.NumViews(), in1.NumQueries(), in1.NumViews())
		}
		for j, o := range in1.Overhead {
			if in2.Overhead[j] != 2*o {
				t.Fatalf("%s: overhead[%d] = %v at 2× pricing, want 2×%v", w.Name, j, in2.Overhead[j], o)
			}
		}
		for ai, row := range in1.Benefit {
			for j, b := range row {
				if in2.Benefit[ai][j] != 2*b {
					t.Fatalf("%s: benefit[%d][%d] = %v at 2× pricing, want 2×%v", w.Name, ai, j, in2.Benefit[ai][j], b)
				}
			}
		}
		for _, sk := range selectors {
			a1.Cfg.Selector, a2.Cfg.Selector = sk, sk
			s1, err := a1.Select(p1)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := a2.Select(p2)
			if err != nil {
				t.Fatal(err)
			}
			for j := range s1.Z {
				if s1.Z[j] != s2.Z[j] {
					t.Fatalf("%s %v: view %d selected %t at 2× pricing, %t at 1×", w.Name, sk, j, s2.Z[j], s1.Z[j])
				}
			}
			if s1.Selected() == 0 {
				t.Errorf("%s %v: no view selected, so the selection says nothing", w.Name, sk)
			}
			if s2.Utility != 2*s1.Utility {
				t.Errorf("%s %v: utility %v at 2× pricing, want 2×%v", w.Name, sk, s2.Utility, s1.Utility)
			}
			r1, err := a1.Apply(p1, s1)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := a2.Apply(p2, s2)
			if err != nil {
				t.Fatal(err)
			}
			if r2.SavedRatio != r1.SavedRatio {
				t.Errorf("%s %v: r_c %v at 2× pricing, %v at 1×", w.Name, sk, r2.SavedRatio, r1.SavedRatio)
			}
		}
	}
}

// TestMetamorphicUnrelatedQuery: a query that shares no subquery with
// any other joins no candidate's cluster and no associated query, so
// appending it to the workload, or prepending it, must change no
// decision. On the mini workload and JOB, under the actual-cost
// estimator, each of local search, Top-kBen, IterView, BigSub and
// RLView must pick the same candidates (by fingerprint) at a
// bit-identical utility. r_c is not compared: the extra query's cost
// enters RawCost.
func TestMetamorphicUnrelatedQuery(t *testing.T) {
	selectors := []SelectorKind{SelectorLocalSearch, SelectorTopkBen, SelectorIterView, SelectorBigSub, SelectorRLView}
	for _, w := range []*workload.Workload{smallWK(), workload.JOB()} {
		extra := unrelatedQuery(t, w)
		appended, prepended := *w, *w
		appended.Queries = append(slices.Clip(w.Queries), extra)
		prepended.Queries = append([]workload.Query{extra}, w.Queries...)
		var picks [][]plan.Fingerprint
		var utils []float64
		for vi, v := range []*workload.Workload{w, &appended, &prepended} {
			a := newAdvisor(t, v, fastConfig())
			p, err := a.BuildProblem(v.Plans(), a.Preprocess(v.Plans()))
			if err != nil {
				t.Fatal(err)
			}
			for si, sk := range selectors {
				a.Cfg.Selector = sk
				s, err := a.Select(p)
				if err != nil {
					t.Fatal(err)
				}
				var picked []plan.Fingerprint
				for j, z := range s.Z {
					if z {
						picked = append(picked, p.Candidates[j].Fingerprint)
					}
				}
				slices.Sort(picked)
				if vi == 0 {
					if len(picked) == 0 {
						t.Errorf("%s %v: no view selected, so the selection says nothing", w.Name, sk)
					}
					picks, utils = append(picks, picked), append(utils, s.Utility)
					continue
				}
				where := [...]string{"", "appended", "prepended"}[vi]
				if !slices.Equal(picked, picks[si]) {
					t.Errorf("%s %v: an unrelated query %s changed the selection from %d to %d views", w.Name, sk, where, len(picks[si]), len(picked))
				}
				if s.Utility != utils[si] {
					t.Errorf("%s %v: an unrelated query %s moved the utility %v to %v", w.Name, sk, where, utils[si], s.Utility)
				}
			}
		}
	}
}

// unrelatedQuery is a query over w's first table whose plan shares no
// derived subtree with any query of w.
func unrelatedQuery(t *testing.T, w *workload.Workload) workload.Query {
	t.Helper()
	tb := w.Cat.Tables()[0]
	col, lit := tb.Columns[0], "987654321"
	if col.Type == catalog.TypeString {
		lit = "'unrelated'"
	}
	sql := fmt.Sprintf("select count(*) as cnt from %s where %s = %s", tb.Name, col.Name, lit)
	n, err := plan.Parse(sql, w.Cat)
	if err != nil {
		t.Fatal(err)
	}
	own := plan.SubtreeFingerprints(n)
	for _, q := range w.Queries {
		for fp := range plan.SubtreeFingerprints(q.Plan) {
			if own[fp] {
				t.Fatalf("%s: %q shares a subtree with %s", w.Name, sql, q.ID)
			}
		}
	}
	return workload.Query{ID: "unrelated", Project: tb.Project, SQL: sql, Plan: n}
}
