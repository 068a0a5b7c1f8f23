package core

import (
	"math/rand"
	"testing"

	"autoview/internal/engine"
	"autoview/internal/obs"
	"autoview/internal/widedeep"
	"autoview/internal/workload"
)

// BenchmarkFit times one W-D fit (Algorithm 1) over the training pairs
// of WK1's last 512 queries — the window a daemon bootstraps on — at
// ConfigFor("WK1")'s budgets, serially and on two workers. Each op is a
// whole fit from the same initial weights. Besides ns/op it reports the
// process's CPU time per op (cpu_s/op) and the wall time of the fit's
// three passes per op: A (wd.train.encode, the batch's distinct
// operators through LSTM1), B (nn.train.step, everything above the
// operator vectors, forward and backward) and C (wd.train.opgrad, the
// operators' backward). Run it with `make bench-fit`.
func BenchmarkFit(b *testing.B) {
	w := workload.WK1()
	queries := w.Plans()
	if len(queries) > 512 {
		queries = queries[len(queries)-512:]
	}
	cfg := ConfigFor("WK1")
	cfg.Estimator = EstimatorWideDeep
	a := NewAdvisor(w.Cat, engine.New(w.Populate()), cfg)
	pre := a.Preprocess(queries)
	p := &Problem{Queries: queries, Pre: pre, AssocQueries: pre.AssociatedQueries}
	if err := a.measureQueryCosts(p, queries); err != nil {
		b.Fatal(err)
	}
	if err := a.materializeCandidates(p, pre); err != nil {
		b.Fatal(err)
	}
	pairs, assocIndex := p.benefitPairs()
	set, err := a.wdTrainingSet(p, pairs, assocIndex)
	if err != nil {
		b.Fatal(err)
	}

	for _, par := range []struct {
		name string
		n    int
	}{{"P1", 1}, {"P2", 2}} {
		b.Run(par.name, func(b *testing.B) {
			was := obs.Enabled()
			obs.Enable()
			defer obs.Default.SetEnabled(was)
			passes := []string{"wd.train.encode", "nn.train.step", "wd.train.opgrad"}
			sums := func() []float64 {
				out := make([]float64, len(passes))
				for i, name := range passes {
					out[i] = obs.Default.Histogram(name+".seconds", "").Sum()
				}
				return out
			}
			tc := cfg.WDTrain
			tc.Parallelism = par.n
			before, cpu := sums(), cpuTime()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := widedeep.New(set.vocab, cfg.WDModel, rand.New(rand.NewSource(cfg.Seed)))
				if _, err := m.Fit(set.samples, tc); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric((cpuTime()-cpu).Seconds()/float64(b.N), "cpu_s/op")
			for i, s := range sums() {
				b.ReportMetric((s-before[i])/float64(b.N), "pass"+string(rune('A'+i))+"_s/op")
			}
			b.ReportMetric(float64(len(set.samples)), "pairs")
		})
	}
}
