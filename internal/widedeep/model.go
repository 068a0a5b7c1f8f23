// Package widedeep implements the paper's cost estimation model (Section
// IV): a Wide-Deep network that predicts A(q|v), the cost of query q
// rewritten with materialized view v, from plan sequences, table schemas
// and table statistics.
//
// Architecture (Figure 5):
//
//	wide:  Dw = Mw(Dc)                        (affine over normalized numerics)
//	deep:  Dr = concat(Dc, Dm, De)
//	       Z1 = Dr ⊕ ReLU(FC2(ReLU(FC1(Dr))))
//	       Z2 = Z1 ⊕ ReLU(FC4(ReLU(FC3(Z1))))  (two ResNet blocks)
//	out:   Ŷ  = FC6(ReLU(FC5(Dw, Z2)))         (regressor)
//
// where Dm is the schema encoding and De the plan sequence encoding of the
// query and view plans (internal/featenc). Model.Fit runs the mini-batch
// training loop of Algorithm 1 over measured (q, v, A(q|v)) samples;
// Model.Predict serves Â(q|v) to the benefit estimator.
//
// The graph above is wired three times: Model.forward (the float64
// tape, the bit-exact reference, exposed to tests as PredictReference),
// the batched training passes (train.go: the same float64 arithmetic
// over a mini-batch's pairs as lanes, held to Model.forward's gradient
// by TestBatchGradMatchesPerPairOracle) and kernels32.inferForward (the
// float32 mirror behind Predict; PredictBatch runs the same pieces with
// each distinct operator of the batch encoded once, batch.go). No option
// selects between them.
package widedeep

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"autoview/internal/featenc"
	"autoview/internal/nn"
	"autoview/internal/obs"
)

// W-D estimator metrics: every Predict counts (and is timed by the
// wd.infer span when obs is enabled); Fit reports per-epoch training loss
// through the wd.train.loss gauge and times whole fits under wd.train.
var (
	obsInferCount   = obs.Default.Counter("wd.infer.count", "W-D cost-model inferences (Predict calls or PredictBatch elements)")
	obsInferBatches = obs.Default.Counter("wd.infer.batches", "W-D PredictBatch invocations")
	obsArenaBytes   = obs.Default.Gauge("wd.infer.arena.bytes", "scratch footprint of the last returned W-D inference arena (per-worker high-water mark)")
	obsTrainEpochs  = obs.Default.Counter("wd.train.epochs", "W-D training epochs completed")
	obsTrainLoss    = obs.Default.Gauge("wd.train.loss", "mean training loss of the last W-D epoch")
)

// Config sizes the network.
type Config struct {
	Encoder    featenc.Config
	WideDim    int // output width of the wide affine part, default 8
	DeepHidden int // hidden width inside each ResNet block, default 32
	RegHidden  int // hidden width of the regressor, default 16

	// WideOnly drops the deep part (the regressor sees only Dw);
	// DeepOnly drops the wide part. Both false is the paper's model.
	// These drive the wide-vs-deep ablation benchmark.
	WideOnly bool
	DeepOnly bool
}

func (c Config) withDefaults() Config {
	if c.WideDim <= 0 {
		c.WideDim = 8
	}
	if c.DeepHidden <= 0 {
		c.DeepHidden = 32
	}
	if c.RegHidden <= 0 {
		c.RegHidden = 16
	}
	return c
}

// Model is the Wide-Deep cost estimator.
type Model struct {
	Enc  *featenc.Encoder
	Norm *featenc.Normalizer

	Wide               *nn.Linear // Mw
	FC1, FC2, FC3, FC4 *nn.Linear // deep ResNet blocks Md
	FC5, FC6           *nn.Linear // regressor Mr

	// Target standardization (fitted during training).
	yMean, yStd float64

	cfg Config

	// arenas pools per-worker inference scratch for the zero-allocation
	// Predict/PredictBatch fast path. Warm arenas are reused across
	// calls, batches and serving requests; the pool makes concurrent
	// Predict calls safe without locking.
	arenas nn.ArenaPool

	// k32 caches the float32 kernel mirror of the trained weights
	// (built lazily, dropped by InvalidateKernels whenever the f64
	// parameters change).
	k32 atomic.Pointer[kernels32]
}

// New builds an initialized model over the vocabulary.
func New(vocab *featenc.Vocab, cfg Config, rng *rand.Rand) *Model {
	cfg = cfg.withDefaults()
	enc := featenc.NewEncoder(vocab, cfg.Encoder, rng)
	dr := featenc.NumericDim + enc.SchemaDim() + 2*enc.PlanDim()
	regIn := cfg.WideDim + dr
	if cfg.WideOnly {
		regIn = cfg.WideDim
	} else if cfg.DeepOnly {
		regIn = dr
	}
	m := &Model{
		Enc: enc,
		// Identity until Fit or Load: Predict is safe for concurrent use,
		// so no forward may be the one that installs it.
		Norm: featenc.FitNormalizer(nil),
		cfg:  cfg,
		Wide: nn.NewLinear("wide", featenc.NumericDim, cfg.WideDim, rng),
		FC1:  nn.NewLinear("fc1", dr, cfg.DeepHidden, rng),
		FC2:  nn.NewLinear("fc2", cfg.DeepHidden, dr, rng),
		FC3:  nn.NewLinear("fc3", dr, cfg.DeepHidden, rng),
		FC4:  nn.NewLinear("fc4", cfg.DeepHidden, dr, rng),
		FC5:  nn.NewLinear("fc5", regIn, cfg.RegHidden, rng),
		FC6:  nn.NewLinear("fc6", cfg.RegHidden, 1, rng),
		yStd: 1,
	}
	return m
}

// Params returns every learnable parameter (θm, θe, θw, θd, θr).
func (m *Model) Params() []*nn.Param {
	return nn.CollectParams(m.Enc, m.Wide, m.FC1, m.FC2, m.FC3, m.FC4, m.FC5, m.FC6)
}

// forward computes the standardized prediction and a backward closure
// taking dL/dŷ. It is the bit-exact f64 reference the f32 serving mirror
// (kernels32.inferForward) and the batched training passes (train.go)
// are held to: EncodeOps on both plans, forwardOps above the operator
// vectors. Its tapes live on the heap.
func (m *Model) forward(f featenc.Features) (float64, func(dy float64)) {
	qOps, bQ := m.Enc.EncodeOps(f.QueryPlan, nil)
	vOps, bV := m.Enc.EncodeOps(f.ViewPlan, nil)
	y, back := m.forwardOps(f, qOps, vOps, nil)
	return y, func(dy float64) {
		dQ, dV := back(dy)
		bQ(dQ)
		bV(dV)
	}
}

// forwardOps is the model above the operator vectors: the plan encoders
// over qOps and vOps (the operator vectors of f.QueryPlan and
// f.ViewPlan), schema encoding, wide part, ResNet blocks and regressor.
// Its backward closure accumulates the gradients of those layers and
// returns dL/d(operator vector) for every operator use of the query
// and the view plan, read-only. The schema and plan encoders' tapes,
// and so those gradients, are carved from a (nil: the heap).
func (m *Model) forwardOps(f featenc.Features, qOps, vOps []nn.Vec, a *nn.Arena) (float64, func(dy float64) (dQ, dV []nn.Vec)) {
	dc := m.Norm.Apply(f.Numeric)

	dw, bWide := m.Wide.Forward(dc)
	dm, bSchema := m.Enc.EncodeSchema(f.Schema, a)
	deQ, bQ := m.Enc.EncodeOpVecs(qOps, a)
	deV, bV := m.Enc.EncodeOpVecs(vOps, a)

	dr := nn.Concat(a, dc, dm, deQ, deV)

	// ResNet block 1.
	h1, b1 := m.FC1.Forward(dr)
	a1, ab1 := nn.ReLU(h1)
	h2, b2 := m.FC2.Forward(a1)
	a2, ab2 := nn.ReLU(h2)
	z1 := addVecs(dr, a2, a)

	// ResNet block 2.
	h3, b3 := m.FC3.Forward(z1)
	a3, ab3 := nn.ReLU(h3)
	h4, b4 := m.FC4.Forward(a3)
	a4, ab4 := nn.ReLU(h4)
	z2 := addVecs(z1, a4, a)

	// Regressor. Ablations drop one branch entirely.
	var reg nn.Vec
	switch {
	case m.cfg.WideOnly:
		reg = dw
	case m.cfg.DeepOnly:
		reg = z2
	default:
		reg = nn.Concat(a, dw, z2)
	}
	h5, b5 := m.FC5.Forward(reg)
	a5, ab5 := nn.ReLU(h5)
	out, b6 := m.FC6.Forward(a5)

	back := func(dy float64) (dQ, dV []nn.Vec) {
		dA5 := b6(nn.Vec{dy})
		dH5 := ab5(dA5)
		dReg := b5(dH5)
		var dDw, dZ2 nn.Vec
		switch {
		case m.cfg.WideOnly:
			dDw = dReg
			dZ2 = a.Vec(len(z2))
		case m.cfg.DeepOnly:
			dDw = a.Vec(len(dw))
			dZ2 = dReg
		default:
			dDw, dZ2 = dReg[:len(dw)], dReg[len(dw):]
		}

		// Block 2 backward: z2 = z1 + a4.
		dA4 := ab4(dZ2)
		dH4 := b4(dA4)
		dA3 := ab3(dH4)
		dZ1fromBlock := b3(dA3)
		dZ1 := addVecs(dZ2, dZ1fromBlock, a)

		// Block 1 backward: z1 = dr + a2.
		dA2 := ab2(dZ1)
		dH2 := b2(dA2)
		dA1 := ab1(dH2)
		dDrFromBlock := b1(dA1)
		dDr := addVecs(dZ1, dDrFromBlock, a)

		// dc has no learnable upstream (normalized statistics), skip.
		dDm := dDr[len(dc):][:len(dm)]
		dDeQ := dDr[len(dc)+len(dm):][:len(deQ)]
		bSchema(dDm)
		dQ, dV = bQ(dDeQ), bV(dDr[len(dc)+len(dm)+len(deQ):])
		bWide(dDw)
		return dQ, dV
	}
	return out[0], back
}

// addVecs returns x ⊕ y carved from a (nil: the heap): a residual
// connection forward, and the sum of its two gradients backward.
func addVecs(x, y nn.Vec, a *nn.Arena) nn.Vec {
	out := a.Vec(len(x))
	for i := range x {
		out[i] = x[i] + y[i]
	}
	return out
}

// Predict estimates A(q|v) for one feature set. The model must have been
// trained (Fit) first.
//
// Predict runs the forward-only inference fast path: no backward
// closures are built and every activation lives in a pooled nn.Arena,
// so a steady-state call performs zero heap allocations. It runs the
// float32 kernel mirror (blocked kernels, folded embedding tables — see
// internal/nn kernels32), which agrees with the float64 training
// forward within the pinned tolerance and never flips a view ranking
// (the parity harness enforces both). Safe for concurrent use.
func (m *Model) Predict(f featenc.Features) float64 {
	defer obs.StartSpan("wd.infer")()
	obsInferCount.Inc()
	a := m.arenas.Get()
	a.Reset()
	y := m.kernels().inferForward(f, a)
	obsArenaBytes.Set(float64(a.Bytes()))
	m.arenas.Put(a)
	return y*m.yStd + m.yMean
}

// PredictReference estimates A(q|v) through the float64 training
// forward — the bit-exact reference the f32 serving path is compared
// against. Reference-only: it builds (and drops) the backward closures
// and allocates, so nothing on a serving path should call it.
func (m *Model) PredictReference(f featenc.Features) float64 {
	y, _ := m.forward(f)
	return y*m.yStd + m.yMean
}

// Sample is one training example: features plus the measured cost A(q|v).
type Sample struct {
	F featenc.Features
	Y float64
}

// TrainConfig controls Algorithm 1.
type TrainConfig struct {
	Epochs    int     // I
	LearnRate float64 // lr
	BatchSize int     // b_s
	Seed      int64
	// Parallelism is the number of workers a mini-batch's passes and
	// gradient reductions run on (train.go). 0 selects runtime.NumCPU();
	// 1 runs serially. Results are bit-for-bit identical for every
	// setting.
	Parallelism int
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Epochs <= 0 {
		c.Epochs = 20
	}
	if c.LearnRate <= 0 {
		c.LearnRate = 0.005
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 16
	}
	return c
}

// Fit trains the model with mini-batch Adam and MSE loss, following
// Algorithm 1: extract features, normalize, shuffle each epoch, sample
// batches, and jointly optimize all five parts. It returns the mean
// training loss per epoch.
func (m *Model) Fit(samples []Sample, cfg TrainConfig) ([]float64, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("widedeep: no training samples")
	}
	defer obs.StartSpan("wd.train")()
	// The f32 mirror is stale from the first optimizer step; drop it now
	// (and again on exit) so concurrent readers rebuild rather than
	// serve mid-training weights from before the fit.
	m.InvalidateKernels()
	defer m.InvalidateKernels()
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Lines 1-2: numeric normalization and target standardization.
	numerics := make([][]float64, len(samples))
	for i, s := range samples {
		numerics[i] = s.F.Numeric
	}
	m.Norm = featenc.FitNormalizer(numerics)
	m.fitTargetScale(samples)

	params := m.Params()
	opt := nn.NewAdam(cfg.LearnRate)
	opt.Clip = 5

	// Data-parallel mini-batch gradients, each distinct operator of a
	// batch encoded once (train.go).
	grad := m.newBatchGrad(samples, cfg.Parallelism)

	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	losses := make([]float64, 0, cfg.Epochs)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		var batches int
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			batchLoss := grad.step(idx[start:end])
			opt.Step(params)
			epochLoss += batchLoss / float64(end-start)
			batches++
		}
		meanLoss := epochLoss / float64(batches)
		losses = append(losses, meanLoss)
		obsTrainEpochs.Inc()
		obsTrainLoss.Set(meanLoss)
		obs.Debug("wd.epoch", "epoch", epoch, "loss", meanLoss)
	}
	return losses, nil
}

func (m *Model) fitTargetScale(samples []Sample) {
	var mean float64
	for _, s := range samples {
		mean += s.Y
	}
	mean /= float64(len(samples))
	var variance float64
	for _, s := range samples {
		d := s.Y - mean
		variance += d * d
	}
	std := math.Sqrt(variance / float64(len(samples)))
	if std < 1e-12 {
		std = 1
	}
	m.yMean, m.yStd = mean, std
}

// VariantName labels the four architecture variants of the experiments.
func VariantName(cfg featenc.Config) string {
	switch {
	case cfg.NoSequence:
		return "N-Exp"
	case cfg.StringOneHot:
		return "N-Str"
	case cfg.KeywordOneHot:
		return "N-Kw"
	default:
		return "W-D"
	}
}

// Variants returns the encoder configurations of the paper's comparison:
// the full model and its three ablations. Note the paper's naming: N-Kw
// removes only keyword embeddings, N-Str only the string CNN, N-Exp only
// the sequence models.
func Variants() map[string]featenc.Config {
	return map[string]featenc.Config{
		"W-D":   {},
		"N-Kw":  {KeywordOneHot: true},
		"N-Str": {StringOneHot: true},
		"N-Exp": {NoSequence: true},
	}
}
