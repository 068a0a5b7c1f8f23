package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"autoview/internal/catalog"
	"autoview/internal/core"
	"autoview/internal/costbase"
	"autoview/internal/featenc"
	"autoview/internal/metrics"
	"autoview/internal/plan"
	"autoview/internal/widedeep"
	"autoview/internal/workload"
)

// pairSamples returns the cost-estimation ground truth of every
// (associated query, candidate) pair of p, in core.Advisor.Pairs order.
// Following Section VI-B1, JOB's A(q|v) is metered (the pairs its view
// rewrites nothing in are dropped); on the WK workloads the RealOpt
// approximation A(q|v) ≈ A(q) − A(s) stands in, as executing every
// rewritten pair at production scale was too expensive for the paper.
func pairSamples(w *workload.Workload, adv *core.Advisor, p *core.Problem) ([]costbase.Sample, error) {
	pairs, err := adv.Pairs(p)
	if err != nil {
		return nil, err
	}
	pricing := adv.Cfg.Pricing
	useRealOpt := w.Name != "JOB"
	var samples []costbase.Sample
	for _, pr := range pairs {
		c := p.Candidates[pr.Candidate]
		qc, vc := p.QueryCost[pr.Query], c.View.BuildUsage.Cost(pricing)
		var actual float64
		if useRealOpt {
			actual = qc - vc
			if actual < 0 {
				actual = 0
			}
		} else {
			if pr.Replaced == 0 {
				continue
			}
			actual = pr.Usage.Cost(pricing)
		}
		q := p.Queries[pr.Query]
		samples = append(samples, costbase.Sample{
			Q:      q,
			V:      c.Plan,
			F:      featenc.Extract(q, c.Plan, w.Cat),
			Actual: actual * costbase.CostUnit,
			QCost:  qc * costbase.CostUnit,
			VCost:  vc * costbase.CostUnit,
		})
	}
	return samples, nil
}

// buildPairs meters w's pairs on its ground-truth problem (pairSamples)
// and, when there are more than maxPairs > 0, keeps a seeded sample of
// maxPairs. It returns the problem too.
func buildPairs(w *workload.Workload, s Scale, maxPairs int, seed int64) ([]costbase.Sample, *core.Problem, error) {
	adv, p, err := groundTruthProblem(w, s)
	if err != nil {
		return nil, nil, err
	}
	samples, err := pairSamples(w, adv, p)
	if err != nil {
		return nil, nil, err
	}
	if maxPairs > 0 && len(samples) > maxPairs {
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
		samples = samples[:maxPairs]
	}
	return samples, p, nil
}

// wdAdapter exposes a Wide-Deep model through the Estimator interface.
type wdAdapter struct {
	name  string
	cat   *catalog.Catalog
	plans []*plan.Node
	cfg   widedeep.Config
	train widedeep.TrainConfig
	seed  int64
	model *widedeep.Model
}

func (a *wdAdapter) Name() string { return a.name }

func (a *wdAdapter) Fit(train []costbase.Sample) error {
	vocab := featenc.NewVocab(a.cat, featenc.CollectPlanKeywords(a.plans))
	a.model = widedeep.New(vocab, a.cfg, rand.New(rand.NewSource(a.seed)))
	samples := make([]widedeep.Sample, len(train))
	for i, s := range train {
		samples[i] = widedeep.Sample{F: s.F, Y: s.Actual}
	}
	_, err := a.model.Fit(samples, a.train)
	return err
}

func (a *wdAdapter) Predict(s costbase.Sample) float64 {
	return a.model.Predict(s.F)
}

// score fits est on train and returns its MAE and MAPE on test.
func score(est costbase.Estimator, train, test []costbase.Sample) (mae, mape float64, err error) {
	if err := est.Fit(train); err != nil {
		return 0, 0, err
	}
	y := make([]float64, len(test))
	yhat := make([]float64, len(test))
	for i, sm := range test {
		y[i] = sm.Actual
		yhat[i] = est.Predict(sm)
	}
	return metrics.MAE(y, yhat), metrics.MAPEWithFloor(y, yhat), nil
}

// Tab3Row is one method's errors on one workload.
type Tab3Row struct {
	Method string
	MAE    float64
	MAPE   float64
}

// Tab3Result is Table III's grid.
type Tab3Result struct {
	Names []string
	Rows  map[string][]Tab3Row // workload name -> method rows
	Pairs map[string]int
}

// Tab3Methods lists the comparison in the paper's column order.
var Tab3Methods = []string{"Optimizer", "DeepLearn", "LR", "GBM", "N-Exp", "N-Str", "N-Kw", "W-D"}

// Tab3 runs the cost-estimation comparison: 7:1:2 split, Adam training,
// MAE and MAPE on the held-out test set (Table III).
func Tab3(s Scale) (*Tab3Result, error) {
	res := &Tab3Result{Rows: map[string][]Tab3Row{}, Pairs: map[string]int{}}
	maxPairs := 0
	if s == Quick {
		maxPairs = 220
	}
	for _, w := range Workloads(s) {
		samples, _, err := buildPairs(w, s, maxPairs, 11)
		if err != nil {
			return nil, fmt.Errorf("tab3 %s: %w", w.Name, err)
		}
		res.Names = append(res.Names, w.Name)
		res.Pairs[w.Name] = len(samples)

		trainIdx, _, testIdx := metrics.Split(len(samples), 0.7, 0.1, 99)
		train := pick(samples, trainIdx)
		test := pick(samples, testIdx)

		cfg := configFor(w.Name, s)
		pricing := costbase.UnitPricing(cfg.Pricing)
		encDims := cfg.WDModel.Encoder
		estimators := []costbase.Estimator{
			&costbase.OptimizerEstimator{Cat: w.Cat, Pricing: pricing},
			&costbase.DeepLearn{Cat: w.Cat, Pricing: pricing, Epochs: cfg.WDTrain.Epochs / 2, LR: cfg.WDTrain.LearnRate, Seed: 3},
			&costbase.LinearRegressor{},
			&costbase.GBM{},
		}
		for _, name := range []string{"N-Exp", "N-Str", "N-Kw", "W-D"} {
			variant := widedeep.Variants()[name]
			variant.EmbedDim = encDims.EmbedDim
			variant.Hidden = encDims.Hidden
			estimators = append(estimators, &wdAdapter{
				name:  name,
				cat:   w.Cat,
				plans: w.Plans(),
				cfg:   widedeep.Config{Encoder: variant},
				train: cfg.WDTrain,
				seed:  17,
			})
		}
		for _, est := range estimators {
			mae, mape, err := score(est, train, test)
			if err != nil {
				return nil, fmt.Errorf("tab3 %s/%s: %w", w.Name, est.Name(), err)
			}
			res.Rows[w.Name] = append(res.Rows[w.Name], Tab3Row{Method: est.Name(), MAE: mae, MAPE: mape})
		}
	}
	return res, nil
}

func pick(samples []costbase.Sample, idx []int) []costbase.Sample {
	out := make([]costbase.Sample, len(idx))
	for i, j := range idx {
		out[i] = samples[j]
	}
	return out
}

// Render formats Table III.
func (r *Tab3Result) Render() string {
	var b strings.Builder
	b.WriteString("Table III: cost estimation (MAE in cost units, MAPE %)\n")
	fmt.Fprintf(&b, "  %-14s", "Metric")
	for _, m := range Tab3Methods {
		fmt.Fprintf(&b, "%11s", m)
	}
	b.WriteString("\n")
	for _, name := range r.Names {
		rows := r.Rows[name]
		fmt.Fprintf(&b, "  MAE  (%s)%s", name, strings.Repeat(" ", max(0, 7-len(name))))
		for _, m := range Tab3Methods {
			fmt.Fprintf(&b, "%11.3f", find(rows, m).MAE)
		}
		b.WriteString("\n")
		fmt.Fprintf(&b, "  MAPE (%s)%s", name, strings.Repeat(" ", max(0, 7-len(name))))
		for _, m := range Tab3Methods {
			fmt.Fprintf(&b, "%10.2f%%", find(rows, m).MAPE)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func find(rows []Tab3Row, method string) Tab3Row {
	for _, r := range rows {
		if r.Method == method {
			return r
		}
	}
	return Tab3Row{Method: method}
}
