// Cloudanalytics demonstrates the learned components on a multi-project
// cloud workload (WK1-style): it trains the DeepLearn single-plan cost
// estimator on a sample of measured rewrites, compares its estimates
// against the traditional optimizer's on held-out pairs, and then drives
// view selection from Wide-Deep estimates.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"autoview/internal/core"
	"autoview/internal/costbase"
	"autoview/internal/engine"
	"autoview/internal/featenc"
	"autoview/internal/metrics"
	"autoview/internal/workload"
)

func main() {
	w := workload.WK(workload.WKParams{
		Name: "cloud", Projects: 8, FactsPerProject: 2, DimsPerProject: 1,
		Queries: 160, FragsPerProject: 3, Skew: 1.3, ThreeWayFraction: 0.2,
		RowSkew: 2.0, UniqueFraction: 0.4, Seed: 2024,
	})
	fmt.Printf("cloud workload: %d queries across %d projects\n",
		len(w.Queries), len(w.Cat.Projects()))

	// --- Part 1: cost estimation quality ---------------------------------
	// Meter every (query, view) pair as ground truth: each A(q|v) is
	// composed from the query's traced execution, as BuildProblem meters
	// benefits.
	cfg := core.WKConfig()
	cfg.Estimator = core.EstimatorActual
	adv := core.NewAdvisor(w.Cat, engine.New(w.Populate()), cfg)
	pre := adv.Preprocess(w.Plans())
	fmt.Printf("pre-process: |Z|=%d candidates\n", len(pre.Candidates))
	p, err := adv.BuildProblem(w.Plans(), pre)
	if err != nil {
		log.Fatal(err)
	}
	metered, err := adv.Pairs(p)
	if err != nil {
		log.Fatal(err)
	}
	var pairs []costbase.Sample
	for _, pr := range metered {
		if pr.Replaced == 0 {
			continue
		}
		q, v := p.Queries[pr.Query], p.Candidates[pr.Candidate]
		pairs = append(pairs, costbase.Sample{
			Q: q, V: v.Plan,
			F:      featenc.Extract(q, v.Plan, w.Cat),
			Actual: pr.Usage.Cost(cfg.Pricing) * costbase.CostUnit,
			QCost:  p.QueryCost[pr.Query] * costbase.CostUnit,
			VCost:  v.View.BuildUsage.Cost(cfg.Pricing) * costbase.CostUnit,
		})
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	split := len(pairs) * 7 / 10
	train, test := pairs[:split], pairs[split:]
	fmt.Printf("measured %d (query, view) pairs; %d train / %d test\n",
		len(pairs), len(train), len(test))

	scaled := costbase.UnitPricing(cfg.Pricing)
	optEst := &costbase.OptimizerEstimator{Cat: w.Cat, Pricing: scaled}
	dl := &costbase.DeepLearn{Cat: w.Cat, Pricing: scaled, Epochs: 25, Seed: 3}
	if err := dl.Fit(train); err != nil {
		log.Fatal(err)
	}
	y := make([]float64, len(test))
	for i, s := range test {
		y[i] = s.Actual
	}
	report := func(name string, est costbase.Estimator) {
		yhat := make([]float64, len(test))
		for i, s := range test {
			yhat[i] = est.Predict(s)
		}
		fmt.Printf("  %-10s MAE=%.3f MAPE=%.1f%%\n",
			name, metrics.MAE(y, yhat), metrics.MAPEWithFloor(y, yhat))
	}
	fmt.Println("held-out estimation error (cost units):")
	report("Optimizer", optEst)
	report("DeepLearn", dl)

	// --- Part 2: selection driven by the learned estimator ----------------
	cfg = core.WKConfig()
	cfg.Estimator = core.EstimatorWideDeep
	cfg.Selector = core.SelectorRLView
	cfg.RL.Epochs = 20
	cfg.WDTrain.Epochs = 15
	cfg.WDTrain.BatchSize = 16
	adv2 := core.NewAdvisor(w.Cat, engine.New(w.Populate()), cfg)
	rep, err := adv2.Run(w.Plans())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nend-to-end with W-D + RLView:")
	fmt.Println(" ", rep)
}
