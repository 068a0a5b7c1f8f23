package costbase

import (
	"fmt"
	"math"
	"math/rand"

	"autoview/internal/catalog"
	"autoview/internal/engine"
	"autoview/internal/featenc"
	"autoview/internal/nn"
	"autoview/internal/plan"
)

// DeepLearn is the state-of-the-art single-query deep-learning baseline
// (the paper's [36]): a neural network predicts the cost of one plan from
// its encoded plan sequence; A(q|v) is then assembled as
// Â(q) − Â(s) + A(scan v), accumulating the per-term errors the paper
// attributes to this decomposition.
type DeepLearn struct {
	Cat     *catalog.Catalog
	Pricing engine.Pricing
	Epochs  int
	LR      float64
	Seed    int64
	// Parallelism is the number of data-parallel training workers per
	// mini-batch (nn.Trainer). 0 selects runtime.NumCPU(); 1 runs
	// serially. Results are bit-for-bit identical for every setting.
	Parallelism int

	enc   *featenc.Encoder
	head  *nn.MLP
	norm  *featenc.Normalizer
	yMean float64
	yStd  float64
}

// Name implements Estimator.
func (d *DeepLearn) Name() string { return "DeepLearn" }

// Fit implements Estimator: it trains the single-plan cost model on the
// standalone costs A(q) and A(s) carried by the samples.
func (d *DeepLearn) Fit(train []Sample) error {
	if len(train) == 0 {
		return fmt.Errorf("costbase: DeepLearn needs training data")
	}
	if d.Epochs <= 0 {
		d.Epochs = 15
	}
	if d.LR <= 0 {
		d.LR = 0.005
	}
	rng := rand.New(rand.NewSource(d.Seed + 1))

	type planSample struct {
		seq     [][]plan.Tok
		numeric []float64
		y       float64
	}
	var data []planSample
	seen := map[*plan.Node]bool{}
	add := func(p *plan.Node, cost float64) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		f := featenc.Extract(p, p, d.Cat)
		data = append(data, planSample{seq: f.QueryPlan, numeric: f.Numeric, y: cost})
	}
	var extras []string
	for _, s := range train {
		add(s.Q, s.QCost)
		add(s.V, s.VCost)
		extras = append(extras, keywordsOf(s.Q)...)
	}
	vocab := featenc.NewVocab(d.Cat, extras)
	d.enc = featenc.NewEncoder(vocab, featenc.Config{EmbedDim: 8, Hidden: 8}, rng)
	d.head = nn.NewMLP("dl.head", []int{d.enc.PlanDim() + featenc.NumericDim, 32, 1}, rng)

	numerics := make([][]float64, len(data))
	for i, s := range data {
		numerics[i] = s.numeric
	}
	d.norm = featenc.FitNormalizer(numerics)

	var mean float64
	for _, s := range data {
		mean += s.y
	}
	mean /= float64(len(data))
	var variance float64
	for _, s := range data {
		dv := s.y - mean
		variance += dv * dv
	}
	d.yMean = mean
	d.yStd = math.Sqrt(variance / float64(len(data)))
	if d.yStd < 1e-12 {
		d.yStd = 1
	}

	params := append(d.enc.Params(), d.head.Params()...)
	opt := nn.NewAdam(d.LR)
	opt.Clip = 5

	// Data-parallel mini-batch gradients over per-worker replicas of the
	// encoder and head (shared weights, private gradients).
	var cur []int
	var n float64
	trainer := nn.NewTrainer(params, d.Parallelism, func() ([]*nn.Param, nn.SampleFunc) {
		enc, head := d.enc.ShareWeights(), d.head.ShareWeights()
		run := func(i int) float64 {
			s := data[cur[i]]
			pred, back := d.forwardWith(enc, head, s.seq, s.numeric)
			target := (s.y - d.yMean) / d.yStd
			delta := pred - target
			back(2 * delta / n)
			return delta * delta
		}
		return append(enc.Params(), head.Params()...), run
	})

	idx := make([]int, len(data))
	for i := range idx {
		idx[i] = i
	}
	const batch = 16
	for epoch := 0; epoch < d.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < len(idx); start += batch {
			end := start + batch
			if end > len(idx) {
				end = len(idx)
			}
			cur = idx[start:end]
			n = float64(end - start)
			trainer.Step(end - start)
			opt.Step(params)
		}
	}
	return nil
}

func keywordsOf(p *plan.Node) []string {
	return featenc.CollectPlanKeywords([]*plan.Node{p})
}

func (d *DeepLearn) forward(seq [][]plan.Tok, numeric []float64) (float64, func(dy float64)) {
	return d.forwardWith(d.enc, d.head, seq, numeric)
}

// forwardWith runs the forward pass through the given encoder and head —
// the canonical ones or a worker replica sharing their weights.
func (d *DeepLearn) forwardWith(enc *featenc.Encoder, head *nn.MLP, seq [][]plan.Tok, numeric []float64) (float64, func(dy float64)) {
	de, bPlan := enc.EncodePlan(seq, nil)
	dc := d.norm.Apply(numeric)
	x := nn.Concat(nil, de, dc)
	y, bHead := head.Forward(x)
	back := func(dy float64) {
		dx := bHead(nn.Vec{dy})
		parts := nn.SplitBackward(dx, len(de), len(dc))
		bPlan(parts[0])
	}
	return y[0], back
}

// predictPlan estimates the standalone cost of one plan.
func (d *DeepLearn) predictPlan(p *plan.Node) float64 {
	f := featenc.Extract(p, p, d.Cat)
	y, _ := d.forward(f.QueryPlan, f.Numeric)
	return y*d.yStd + d.yMean
}

// Predict implements Estimator: Â(q) − Â(s) + A(scan v), with the view
// scan priced from the analytic cardinality estimate.
func (d *DeepLearn) Predict(s Sample) float64 {
	if d.enc == nil {
		return 0
	}
	ve := EstimatePlan(s.V, d.Cat)
	scanCost := ViewScanEstimate(ve).Usage().Cost(d.Pricing)
	cost := d.predictPlan(s.Q) - d.predictPlan(s.V) + scanCost
	if cost < 0 {
		cost = scanCost
	}
	return cost
}
