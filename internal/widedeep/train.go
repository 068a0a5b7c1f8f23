package widedeep

import (
	"autoview/internal/nn"
	"autoview/internal/obs"
	"autoview/internal/plan"
)

// Operator sharing of one fit: uses are the operator vectors the batches'
// plans consumed, distinct the operators actually encoded for them.
// distinct/uses near 1 means a workload with nothing to share. Pass B of
// a batch is the trainer's nn.train.step span; passes A and C are timed
// as wd.train.encode and wd.train.opgrad.
var (
	obsTrainOps         = obs.Default.Counter("wd.train.ops", "operator uses in W-D training batches (one per operator of each query and view plan)")
	obsTrainOpsDistinct = obs.Default.Counter("wd.train.ops.distinct", "operators W-D training encoded (distinct token sequences per batch)")
)

// batchGrad computes the gradient of one mini-batch in three ordered
// passes. A view is a subquery of its query and scans and joins repeat
// across a workload, so a batch's plans are made of far fewer distinct
// operators than operator uses, and an operator's vector depends only
// on its tokens and the (frozen) weights:
//
//	A. encode each distinct operator of the batch once, forward only;
//	B. per pair, forward and backward through everything above the
//	   operator vectors (Model.forwardOps), folded in sample order;
//	   each pair hands back dL/d(operator vector) per use, which are
//	   summed per distinct operator, again in sample order;
//	C. per distinct operator, tokens → operator vector forward and
//	   backward with the summed gradient, folded in first-appearance
//	   order onto the same canonical gradients.
//
// Backpropagation is linear in the upstream gradient, so the result
// equals the per-pair gradient (Model.forward on every sample) up to
// floating-point association, and every pass fixes its summation order
// by index, so it is bit-identical at any parallelism.
type batchGrad struct {
	m       *Model
	samples []Sample
	dim     int // operator vector width

	// Interned once per fit: every distinct operator token sequence
	// has an id, and each sample lists its plans' operators by id.
	seqs       [][]plan.Tok
	qIDs, vIDs [][]int

	// The batch in flight.
	batch    []int
	slot     []int         // operator id → index in distinct, -1 outside the batch
	distinct []int         // operator ids in first-appearance order
	vecs     []float64     // pass A: distinct × dim operator vectors
	dvecs    []float64     // pass B: distinct × dim summed gradients
	duses    [][2][]nn.Vec // pass B: per pair, dL/d(operator vector) of its query and view plan

	pairs, ops *nn.Trainer
}

// newBatchGrad interns the samples' operators and builds the two
// trainers over one set of worker replicas. The model's normalizer and
// target scale must be fitted.
func (m *Model) newBatchGrad(samples []Sample, parallelism int) *batchGrad {
	g := &batchGrad{m: m, samples: samples, dim: m.Enc.PlanDim()}
	var ops opInterner
	intern := func(p [][]plan.Tok) []int {
		out := make([]int, len(p))
		for i, seq := range p {
			out[i] = ops.intern(seq)
		}
		return out
	}
	g.qIDs, g.vIDs = make([][]int, len(samples)), make([][]int, len(samples))
	for i, s := range samples {
		g.qIDs[i], g.vIDs[i] = intern(s.F.QueryPlan), intern(s.F.ViewPlan)
	}
	g.seqs = ops.seqs
	g.slot = make([]int, len(g.seqs))
	for i := range g.slot {
		g.slot[i] = -1
	}

	var reps []*Model
	g.pairs = nn.NewTrainer(m.Params(), parallelism, func() ([]*nn.Param, nn.SampleFunc) {
		rep := m.shareWeights()
		reps = append(reps, rep)
		return rep.Params(), func(i int) float64 { return g.runPair(rep, i) }
	})
	// Pass C touches only what EncodeOp reads, so its fold zeroes and
	// adds those parameters alone — per operator, the rest of the model
	// would cost more than the operator.
	g.ops = nn.NewTrainer(m.Enc.OpParams(), g.pairs.Parallelism(), func() ([]*nn.Param, nn.SampleFunc) {
		rep := reps[0]
		reps = reps[1:]
		return rep.Enc.OpParams(), func(k int) float64 {
			_, back := rep.Enc.EncodeOp(g.seqs[g.distinct[k]])
			back(g.dvecs[k*g.dim : (k+1)*g.dim])
			return 0
		}
	})
	return g
}

// opVecs returns the pass-A vectors of the operators ids names.
func (g *batchGrad) opVecs(ids []int) []nn.Vec {
	out := make([]nn.Vec, len(ids))
	for k, id := range ids {
		s := g.slot[id]
		out[k] = g.vecs[s*g.dim : (s+1)*g.dim : (s+1)*g.dim]
	}
	return out
}

// runPair is pass B for the batch's i-th pair on one worker's replica.
func (g *batchGrad) runPair(rep *Model, i int) float64 {
	si := g.batch[i]
	s := g.samples[si]
	pred, back := rep.forwardOps(s.F, g.opVecs(g.qIDs[si]), g.opVecs(g.vIDs[si]))
	d := pred - (s.Y-g.m.yMean)/g.m.yStd
	dQ, dV := back(2 * d / float64(len(g.batch)))
	g.duses[i] = [2][]nn.Vec{dQ, dV}
	return d * d
}

// step leaves the gradient of the mean squared error over the batch
// (sample indices) in the canonical parameters and returns the summed
// squared errors.
func (g *batchGrad) step(batch []int) float64 {
	g.batch = batch
	uses := 0
	g.distinct = g.distinct[:0]
	for _, si := range batch {
		for _, ids := range [2][]int{g.qIDs[si], g.vIDs[si]} {
			uses += len(ids)
			for _, id := range ids {
				if g.slot[id] < 0 {
					g.slot[id] = len(g.distinct)
					g.distinct = append(g.distinct, id)
				}
			}
		}
	}
	obsTrainOps.Add(int64(uses))
	obsTrainOpsDistinct.Add(int64(len(g.distinct)))

	// A. Forward only reads the weights, so the canonical encoder
	// serves every worker; vectors are copied out of the passes' tapes
	// so those can be collected.
	endA := obs.StartSpan("wd.train.encode")
	size := len(g.distinct) * g.dim
	if cap(g.vecs) < size {
		g.vecs, g.dvecs = make([]float64, size), make([]float64, size)
	}
	g.vecs, g.dvecs = g.vecs[:size], g.dvecs[:size]
	nn.ParallelFor(len(g.distinct), g.pairs.Parallelism(), func(k int) {
		v, _ := g.m.Enc.EncodeOp(g.seqs[g.distinct[k]])
		copy(g.vecs[k*g.dim:(k+1)*g.dim], v)
	})
	endA()

	// B.
	if cap(g.duses) < len(batch) {
		g.duses = make([][2][]nn.Vec, len(batch))
	}
	g.duses = g.duses[:len(batch)]
	loss := g.pairs.Step(len(batch))
	clear(g.dvecs)
	for i, si := range batch {
		for side, ids := range [2][]int{g.qIDs[si], g.vIDs[si]} {
			for k, id := range ids {
				sum := g.dvecs[g.slot[id]*g.dim:][:g.dim]
				for c, d := range g.duses[i][side][k] {
					sum[c] += d
				}
			}
		}
	}

	// C.
	endC := obs.StartSpan("wd.train.opgrad")
	g.ops.Accumulate(len(g.distinct))
	endC()

	for _, id := range g.distinct {
		g.slot[id] = -1
	}
	return loss
}
