// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section VI). One Benchmark per artifact; each iteration reruns the full
// experiment at Quick scale and reports the experiment's headline numbers
// as custom metrics. Run with:
//
//	go test -bench=. -benchmem
package autoview_test

import (
	"testing"

	"autoview/internal/experiments"
)

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
