package rewrite_test

import (
	"math/rand"
	"testing"

	"autoview/internal/core"
	"autoview/internal/engine"
	"autoview/internal/rewrite"
	"autoview/internal/workload"
)

// TestRewriteMatchesReferenceOnWorkloads is the differential oracle for
// the one-pass multi-view Rewrite: on every query of the paper's three
// workloads, with all candidate views, with a real selection (local
// search) and with 20 random candidate subsets, it must return the plan
// text and the replacement count of the composition it replaced
// (reference_test.go). -short and the race detector keep JOB only.
func TestRewriteMatchesReferenceOnWorkloads(t *testing.T) {
	families := []struct {
		name string
		w    func() *workload.Workload
		cfg  core.Config
	}{
		{"JOB", workload.JOB, core.DefaultConfig()},
		{"WK1", workload.WK1, core.WKConfig()},
		{"WK2", workload.WK2, core.WKConfig()},
	}
	if testing.Short() || raceEnabled {
		families = families[:1]
	}
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			w := f.w()
			cfg := f.cfg
			cfg.Estimator = core.EstimatorOptimizer // analytic: nothing to train
			cfg.Selector = core.SelectorLocalSearch
			adv := core.NewAdvisor(w.Cat, engine.New(w.Populate()), cfg)
			plans := w.Plans()
			p, err := adv.BuildProblem(plans, adv.Preprocess(plans))
			if err != nil {
				t.Fatal(err)
			}
			sel, err := adv.Select(p)
			if err != nil {
				t.Fatal(err)
			}
			pick := func(in func(j int) bool) []*rewrite.View {
				var out []*rewrite.View
				for j, c := range p.Candidates {
					if in(j) {
						out = append(out, c.View)
					}
				}
				return out
			}
			sets := [][]*rewrite.View{
				pick(func(int) bool { return true }),
				pick(func(j int) bool { return sel.Z[j] }),
			}
			rng := rand.New(rand.NewSource(17))
			for s := 0; s < 20; s++ {
				share := rng.Float64()
				sets = append(sets, pick(func(int) bool { return rng.Float64() < share }))
			}

			rewritten, multi := 0, 0
			for si, views := range sets {
				for qi, q := range plans {
					// The reference exactly as it ran costs |views|
					// fingerprint passes per query: affordable on the
					// real selection of the two smaller workloads.
					verbatim := si == 1 && f.name != "WK2"
					want, wantN := rewrite.ReferenceRewrite(q, views, !verbatim)
					got, gotN := rewrite.Rewrite(q, views)
					if gotN != wantN {
						t.Fatalf("set %d (%d views) query %d: %d replacements, reference %d", si, len(views), qi, gotN, wantN)
					}
					if g, w := rewrite.SerialText(got), rewrite.SerialText(want); g != w {
						t.Fatalf("set %d (%d views) query %d diverges\ngot:\n%swant:\n%s", si, len(views), qi, g, w)
					}
					if gotN > 0 {
						rewritten++
					}
					if gotN > 1 {
						multi++
					}
				}
			}
			if rewritten == 0 || multi == 0 {
				t.Fatalf("sweep too weak: %d rewritten plans, %d with several replacements", rewritten, multi)
			}
			t.Logf("%d sets × %d queries, |Z|=%d: %d plans rewritten, %d with several replacements",
				len(sets), len(plans), len(p.Candidates), rewritten, multi)
		})
	}
}
