// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section VI). One Benchmark per artifact; each iteration reruns the full
// experiment at Quick scale and reports the experiment's headline numbers
// as custom metrics. Run with:
//
//	go test -bench=. -benchmem
package autoview_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"autoview/internal/core"
	"autoview/internal/experiments"
	"autoview/internal/featenc"
	"autoview/internal/obs"
	"autoview/internal/plan"
	"autoview/internal/serve"
	"autoview/internal/widedeep"
	"autoview/internal/workload"
)

// BenchmarkServeEstimate measures request throughput through the online
// advisor's estimate path: concurrent POST /v1/estimate requests (4
// pairs each) through a Parallelism-sized worker pool.
//
// cold disables the fingerprint caches (serve.Config.CacheSize -1), so
// every request pays JSON decode + SQL parse + feature extraction + the
// W-D forward — the pre-cache baseline. warm runs the default cache
// primed with one request, so iterations exercise the fingerprint-keyed
// hit path (pooled body read, zero-copy decode, cache lookups, encode).
// Both modes report req/s, pairs/s, and allocs/op; BENCH_6.json records
// them, and CI's bench smoke fails on warm-path alloc regression via
// TestEstimateWarmAlloc.
func BenchmarkServeEstimate(b *testing.B) {
	w := workload.WK(workload.WKParams{
		Name:            "bench",
		Projects:        4,
		FactsPerProject: 2,
		DimsPerProject:  1,
		Queries:         60,
		FragsPerProject: 3,
		Skew:            1.2,
		RowSkew:         1.5,
		Seed:            77,
	})
	cfg := core.DefaultConfig()
	cfg.Estimator = core.EstimatorWideDeep
	cfg.Selector = core.SelectorTopkBen
	cfg.WDTrain.Epochs = 2
	cfg.Seed = 7

	modes := []struct {
		name      string
		cacheSize int
	}{
		{"cold", -1}, // caching disabled: the full per-request path
		{"warm", 0},  // default cache, primed before the timer starts
	}
	for _, mode := range modes {
		for _, par := range []int{1, 4, 8} {
			b.Run(mode.name+"/parallelism"+itoa(par), func(b *testing.B) {
				srv, err := serve.New(w, cfg, serve.Config{
					Parallelism: par,
					MaxBatch:    64,
					BatchWindow: 200 * time.Microsecond,
					CacheSize:   mode.cacheSize,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer func() {
					ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
					defer cancel()
					if err := srv.Close(ctx); err != nil {
						b.Fatal(err)
					}
				}()
				handler := srv.Handler()

				// Pair every benchmark query with a bootstrap view's subquery.
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/views", nil))
				var vs struct {
					Views []struct {
						SQL string `json:"sql"`
					} `json:"views"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &vs); err != nil || len(vs.Views) == 0 {
					b.Fatalf("bootstrap views: %v (%d views)", err, len(vs.Views))
				}
				type pair struct {
					Query string `json:"query"`
					View  string `json:"view"`
				}
				pairs := make([]pair, 4)
				for i := range pairs {
					pairs[i] = pair{Query: w.Queries[i].SQL, View: vs.Views[i%len(vs.Views)].SQL}
				}
				body, err := json.Marshal(map[string][]pair{"pairs": pairs})
				if err != nil {
					b.Fatal(err)
				}

				post := func() int {
					req := httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(body))
					rec := httptest.NewRecorder()
					handler.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						b.Fatalf("estimate status %d: %s", rec.Code, rec.Body.String())
					}
					return rec.Code
				}
				if mode.cacheSize >= 0 {
					post() // prime the estimate cache
				}

				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						post()
					}
				})
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
				b.ReportMetric(4*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
			})
		}
	}
}

// BenchmarkPredictAlloc measures the serving-critical single-inference
// path: one widedeep.Model.Predict over a realistic (query, view) feature
// set, reporting ns/op and — the regression guard — allocs/op. The
// steady-state fast path must stay at 0 allocs/op (see the allocation
// tests in internal/widedeep); any per-call garbage shows up here first.
func BenchmarkPredictAlloc(b *testing.B) {
	w := workload.WK(workload.WKParams{
		Name:            "bench",
		Projects:        2,
		FactsPerProject: 2,
		DimsPerProject:  1,
		Queries:         8,
		FragsPerProject: 2,
		Skew:            1.2,
		RowSkew:         1.5,
		Seed:            77,
	})
	q, err := plan.Parse(w.Queries[0].SQL, w.Cat)
	if err != nil {
		b.Fatal(err)
	}
	subs := plan.ExtractSubqueries(q)
	if len(subs) == 0 {
		b.Fatal("no subqueries to pair with")
	}
	f := featenc.Extract(q, subs[0].Root, w.Cat)

	rng := rand.New(rand.NewSource(9))
	m := widedeep.New(featenc.NewVocab(w.Cat, nil), widedeep.Config{
		Encoder: featenc.Config{EmbedDim: 16, Hidden: 16},
	}, rng)
	samples := []widedeep.Sample{{F: f, Y: 1}, {F: f, Y: 2}}
	if _, err := m.Fit(samples, widedeep.TrainConfig{Epochs: 1, BatchSize: 2}); err != nil {
		b.Fatal(err)
	}

	// Pin the obs registry off: earlier benchmarks in the same process
	// (BenchmarkServeEstimate) mount the obs endpoint, which enables
	// span timing globally, and an enabled span allocates. That cost
	// belongs to bench-obs; this benchmark isolates the inference path.
	wasEnabled := obs.Enabled()
	obs.Disable()
	b.Cleanup(func() {
		if wasEnabled {
			obs.Enable()
		}
	})

	var sink float64
	sink = m.Predict(f) // warm up scratch state before measuring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = m.Predict(f)
	}
	_ = sink
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func BenchmarkFig1Redundancy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) == 0 {
			b.Fatal("no redundancy rows")
		}
		if i == 0 {
			b.ReportMetric(r.Cumulative[len(r.Cumulative)-1], "%redundant")
		}
	}
}

func BenchmarkTab1WorkloadStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Tab1(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(r.Stats[0].Candidates), "JOB|Z|")
		}
	}
}

func BenchmarkTab3CostEstimation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Tab3(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range r.Rows["JOB"] {
				switch row.Method {
				case "W-D":
					b.ReportMetric(row.MAPE, "W-D_JOB_MAPE%")
				case "Optimizer":
					b.ReportMetric(row.MAPE, "Opt_JOB_MAPE%")
				}
			}
		}
	}
}

func BenchmarkFig9TopK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Curves) != 3 {
			b.Fatalf("curves for %d workloads", len(r.Curves))
		}
	}
}

func BenchmarkTab4Selection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Tab4(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range r.Rows["JOB"] {
				if row.Method == "RLView" {
					b.ReportMetric(row.Ratio, "RLView_JOB_ratio%")
				}
			}
			if opt, ok := r.OPT["JOB"]; ok {
				b.ReportMetric(opt.Ratio, "OPT_JOB_ratio%")
			}
		}
	}
}

func BenchmarkFig10Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			_, ivStd := experiments.Stability(r.Iter["WK1"])
			_, rvStd := experiments.Stability(r.RL["WK1"])
			b.ReportMetric(ivStd, "IterView_WK1_std")
			b.ReportMetric(rvStd, "RLView_WK1_std")
		}
	}
}

func BenchmarkTab5EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Tab5(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.Improvement["JOB"], "JOB_improv%")
			b.ReportMetric(r.Improvement["P1"], "P1_improv%")
			b.ReportMetric(r.Improvement["P2"], "P2_improv%")
		}
	}
}

func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Ablations(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.WideDeepMAPE, "W-D_MAPE%")
			b.ReportMetric(r.WideOnlyMAPE, "wide-only_MAPE%")
			b.ReportMetric(r.RLViewFull, "RLView_$")
			b.ReportMetric(r.RLViewNoReplay, "no-replay_$")
		}
	}
}
