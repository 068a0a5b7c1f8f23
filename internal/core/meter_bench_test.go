package core

import (
	"testing"

	"autoview/internal/engine"
	"autoview/internal/obs"
	"autoview/internal/workload"
)

// BenchmarkBuildProblem times BuildProblem over WK1's last 512 queries —
// the window a daemon bootstraps on — at ConfigFor("WK1")'s budgets under
// EstimatorActual, so every pair is metered and no fit runs, serially
// and on two workers. Each op is a fresh advisor over the same populated
// store. Besides ns/op it reports the process's CPU time per op
// (cpu_s/op), the wall time of BuildProblem's three stages per op —
// measure (advisor.measure: every A(q)), materialize
// (advisor.materialize: every candidate view) and pairs
// (advisor.estimate: every A(q|v)) — and the engine executions per op
// (engine.exec.count) and of those the pairs executed because their
// usage could not be composed (core.pairs.executed). Run it with
// `make bench-meter`.
func BenchmarkBuildProblem(b *testing.B) {
	w := workload.WK1()
	queries := w.Plans()
	if len(queries) > 512 {
		queries = queries[len(queries)-512:]
	}
	cfg := ConfigFor("WK1")
	cfg.Estimator = EstimatorActual
	store := w.Populate()
	pre := NewAdvisor(w.Cat, engine.New(store), cfg).Preprocess(queries)

	for _, par := range []struct {
		name string
		n    int
	}{{"P1", 1}, {"P2", 2}} {
		b.Run(par.name, func(b *testing.B) {
			was := obs.Enabled()
			obs.Enable()
			defer obs.Default.SetEnabled(was)
			stages := []string{"advisor.measure", "advisor.materialize", "advisor.estimate"}
			counters := []string{"engine.exec.count", "core.pairs.executed"}
			sums := func() []float64 {
				out := make([]float64, 0, len(stages)+len(counters))
				for _, name := range stages {
					out = append(out, obs.Default.Histogram(name+".seconds", "").Sum())
				}
				for _, name := range counters {
					out = append(out, float64(obs.Default.Counter(name, "").Value()))
				}
				return out
			}
			c := cfg
			c.Parallelism = par.n
			before, cpu := sums(), cpuTime()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := NewAdvisor(w.Cat, engine.New(store), c)
				if _, err := a.BuildProblem(queries, pre); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric((cpuTime()-cpu).Seconds()/float64(b.N), "cpu_s/op")
			names := []string{"measure_s/op", "materialize_s/op", "pairs_s/op", "execs/op", "executed/op"}
			for i, s := range sums() {
				b.ReportMetric((s-before[i])/float64(b.N), names[i])
			}
		})
	}
}
