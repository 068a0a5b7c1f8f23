package costbase

import (
	"autoview/internal/engine"
	"autoview/internal/featenc"
	"autoview/internal/plan"
)

// CostUnit is the number of cost units in a dollar. Samples carry their
// costs in cost units, so every learner trains at O(1) magnitudes (MAPE
// is scale-invariant; MAE reads in these units).
const CostUnit = 1e4

// UnitPricing rescales p so the costs it prices are in cost units: what
// an analytic estimator compared against Samples is given.
func UnitPricing(p engine.Pricing) engine.Pricing {
	p.Beta *= CostUnit
	p.Gamma *= CostUnit
	p.Alpha *= CostUnit
	return p
}

// Sample is one cost-estimation example: the query and view plans, the
// extracted features, and the measured cost A(q|v), in cost units.
type Sample struct {
	Q, V   *plan.Node
	F      featenc.Features
	Actual float64
	// QCost and VCost are the measured standalone costs A(q) and A(s),
	// used as training signal by the DeepLearn baseline (which learns a
	// single-plan cost model, not a joint one).
	QCost, VCost float64
}

// Estimator is the common interface of all cost-estimation methods
// compared in Table III.
type Estimator interface {
	Name() string
	Fit(train []Sample) error
	Predict(s Sample) float64
}

// opKinds are the operator types counted by the tabular feature vector.
var opKinds = []string{"Scan", "Filter", "Project", "Join", "Aggregate"}

// numOpKinds mirrors len(opKinds); kept constant so TabularDim is one.
const numOpKinds = 5

// TabularDim is the width of the tabular feature vector used by LR and
// GBM: numeric features plus per-operator counts for both plans and the
// two plan lengths.
const TabularDim = featenc.NumericDim + 2*numOpKinds + 2

// TabularFeatures flattens a feature set into a fixed-width vector for the
// classical learners.
func TabularFeatures(f featenc.Features) []float64 {
	out := make([]float64, 0, TabularDim)
	out = append(out, f.Numeric...)
	out = append(out, opCounts(f.QueryPlan)...)
	out = append(out, opCounts(f.ViewPlan)...)
	out = append(out, float64(len(f.QueryPlan)), float64(len(f.ViewPlan)))
	return out
}

func opCounts(p [][]plan.Tok) []float64 {
	counts := make([]float64, len(opKinds))
	for _, seq := range p {
		if len(seq) == 0 {
			continue
		}
		for i, kind := range opKinds {
			if seq[0].Text == kind {
				counts[i]++
				break
			}
		}
	}
	return counts
}
