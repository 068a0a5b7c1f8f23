package widedeep

import (
	"autoview/internal/featenc"
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
//	A. encode each distinct operator of the batch once, forward only,
//	   on the replica of the worker that owns it (operator k: worker
//	   k mod P), keeping the tape;
//	B. per pair, forward and backward through everything above the
//	   operator vectors (Model.forwardOps), folded in sample order;
//	   each pair hands back dL/d(operator vector) per use, which are
//	   summed per distinct operator, again in sample order;
//	C. per distinct operator, the backward of its pass-A tape with the
//	   summed gradient, on the replica that recorded it (so into that
//	   replica's gradient buffers, zeroed first), folded in
//	   first-appearance order onto the same canonical gradients.
//
// Each pass zeroes and folds only the parameters it touches: B all but
// the string encoder's and LSTM1's, which only an operator's encoding
// reads (the keyword embedding stays: EncodeSchema reads it); C those
// EncodeOp reads, and of the two embedding tables only the operator's
// rows (Encoder.OpRows). Adding a replica's untouched +0 gradient to a
// canonical one changes nothing, so this is the same sum.
//
// Every tape of a batch is carved from its worker's arena, and the
// arenas are reset only when the next batch starts: B's operator
// gradients are views into its plan-LSTM tapes, read after its Step.
// The arenas belong to the fit; nothing in them outlives it.
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

	// Per worker: a replica sharing m's weights, the arena its tapes
	// are carved from, and its EncodeOp gradients (pass C's).
	reps   []*Model
	arenas []*nn.Arena
	repOps []opGrads
	// The canonical EncodeOp gradients, and the parameters pass B does
	// not zero.
	ops     opGrads
	opsOnly []*nn.Param

	// The batch in flight.
	batch    []int
	slot     []int         // operator id → index in distinct, -1 outside the batch
	distinct []int         // operator ids in first-appearance order
	vecs     []float64     // pass A: distinct × dim operator vectors
	backs    []nn.Backward // pass A: per distinct operator, its tape's backward
	uses     []nn.Vec      // pass B: per pair, the vectors of its query's operators, then its view's
	starts   []int         // starts[i] is where pair i's uses begin
	dvecs    []float64     // pass B: distinct × dim summed gradients
	duses    [][2][]nn.Vec // pass B: per pair, dL/d(operator vector) of its query and view plan

	pairs *nn.Trainer
}

// newBatchGrad interns the samples' operators and builds the pair
// trainer with one replica and one arena per worker. The model's
// normalizer and target scale must be fitted.
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

	pairs, opsOnly := m.splitParams()
	g.ops, g.opsOnly = opGradsOf(m.Enc), opsOnly
	g.pairs = nn.NewTrainer(pairs, parallelism, func() ([]*nn.Param, nn.SampleFunc) {
		rep, a := m.shareWeights(), nn.NewArena()
		g.reps, g.arenas = append(g.reps, rep), append(g.arenas, a)
		g.repOps = append(g.repOps, opGradsOf(rep.Enc))
		repPairs, _ := rep.splitParams()
		return repPairs, func(i int) float64 { return g.runPair(rep, a, i) }
	})
	return g
}

// splitParams returns, in Params order, the parameters pass B touches
// and the rest: the string encoder's and LSTM1's, which only EncodeOp
// reads.
func (m *Model) splitParams() (pairs, opsOnly []*nn.Param) {
	onlyOps := make(map[*nn.Param]bool)
	for _, p := range m.Enc.OpParams() {
		onlyOps[p] = true
	}
	if m.Enc.KwEmb != nil {
		delete(onlyOps, m.Enc.KwEmb.W)
	}
	for _, p := range m.Params() {
		if onlyOps[p] {
			opsOnly = append(opsOnly, p)
		} else {
			pairs = append(pairs, p)
		}
	}
	return pairs, opsOnly
}

// opGrads are the gradients of the parameters EncodeOp reads, as pass C
// zeroes and folds them per operator: LSTM1 and the convolution blocks
// whole, the two embedding tables (nil when one-hot) only in the rows
// of the operator in flight.
type opGrads struct {
	dense            []*nn.Param
	kw, chars        *nn.Param
	kwRows, charRows []int
}

func opGradsOf(e *featenc.Encoder) opGrads {
	var o opGrads
	if e.KwEmb != nil {
		o.kw = e.KwEmb.W
	}
	if e.Str != nil {
		o.chars = e.Str.CharEmb.W
	}
	for _, p := range e.OpParams() {
		if p != o.kw && p != o.chars {
			o.dense = append(o.dense, p)
		}
	}
	return o
}

// runPair is pass B for the batch's i-th pair on one worker's replica,
// its tapes carved from that worker's arena.
func (g *batchGrad) runPair(rep *Model, a *nn.Arena, i int) float64 {
	s := g.samples[g.batch[i]]
	uses := g.uses[g.starts[i]:g.starts[i+1]]
	nq := len(s.F.QueryPlan)
	pred, back := rep.forwardOps(s.F, uses[:nq:nq], uses[nq:], a)
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
	for _, a := range g.arenas {
		a.Reset()
	}
	n, par := len(g.distinct), g.pairs.Parallelism()

	// A. Forward only reads the weights, so any replica can record an
	// operator's tape; its owner's is the one pass C will run. The
	// vectors are copied out of the tapes: the arenas are not B's.
	endA := obs.StartSpan("wd.train.encode")
	size := n * g.dim
	if cap(g.vecs) < size {
		g.vecs, g.dvecs = make([]float64, size), make([]float64, size)
	}
	g.vecs, g.dvecs = g.vecs[:size], g.dvecs[:size]
	if cap(g.backs) < n {
		g.backs = make([]nn.Backward, n)
	}
	g.backs = g.backs[:n]
	nn.ParallelForStriped(n, par, func(w, k int) {
		var v nn.Vec
		v, g.backs[k] = g.reps[w].Enc.EncodeOp(g.seqs[g.distinct[k]], g.arenas[w])
		copy(g.vecs[k*g.dim:(k+1)*g.dim], v)
	}, nil)
	endA()

	// B.
	g.uses, g.starts = g.uses[:0], g.starts[:0]
	for _, si := range batch {
		g.starts = append(g.starts, len(g.uses))
		for _, ids := range [2][]int{g.qIDs[si], g.vIDs[si]} {
			for _, id := range ids {
				k := g.slot[id]
				g.uses = append(g.uses, g.vecs[k*g.dim:(k+1)*g.dim:(k+1)*g.dim])
			}
		}
	}
	g.starts = append(g.starts, len(g.uses))
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

	// C. Operator k's tape was recorded on worker k mod P's replica, and
	// the same striping runs its backward there.
	endC := obs.StartSpan("wd.train.opgrad")
	nn.ZeroGrads(g.opsOnly)
	nn.ParallelForStriped(n, par, func(w, k int) {
		r := &g.repOps[w]
		r.kwRows, r.charRows = g.m.Enc.OpRows(g.seqs[g.distinct[k]], r.kwRows[:0], r.charRows[:0])
		nn.ZeroGrads(r.dense)
		r.kw.ZeroGradRows(r.kwRows)
		r.chars.ZeroGradRows(r.charRows)
		g.backs[k](g.dvecs[k*g.dim : (k+1)*g.dim])
	}, func(w, _ int) {
		r := &g.repOps[w]
		nn.AddGrads(g.ops.dense, r.dense)
		nn.AddGradRows(g.ops.kw, r.kw, r.kwRows)
		nn.AddGradRows(g.ops.chars, r.chars, r.charRows)
	})
	endC()

	for _, id := range g.distinct {
		g.slot[id] = -1
	}
	return loss
}
