package widedeep

import (
	"sync"

	"autoview/internal/featenc"
	"autoview/internal/nn"
	"autoview/internal/obs"
)

// Operator sharing of the batches served: the twins of wd.train.ops and
// wd.train.ops.distinct, with the same reading (distinct/uses near 1 =
// batches with nothing to share). Predict moves neither.
var (
	obsInferOps         = obs.Default.Counter("wd.infer.ops", "operator uses in W-D PredictBatch batches (one per operator of each query and view plan)")
	obsInferOpsDistinct = obs.Default.Counter("wd.infer.ops.distinct", "operators W-D PredictBatch encoded (distinct token sequences per batch)")
)

// batchScratch is the operator sharing of one PredictBatch call: which
// operators the batch holds, which of them each plan uses, and their
// vectors. Pooled, so a steady-state batch allocates none of it; nothing
// in it is read after the call that filled it.
type batchScratch struct {
	ops    opInterner
	uses   []int32  // operator index per use, pair by pair: query operators, then view operators
	starts []int    // starts[i] is where pair i's uses begin
	slab   nn.Vec32 // operator k's vector at [k*dim, (k+1)*dim)
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// putBatchScratch empties the scratch — a pooled one must not keep a
// finished request's plans alive — and returns it to the pool.
func putBatchScratch(sc *batchScratch) {
	sc.ops.reset()
	sc.uses, sc.starts = sc.uses[:0], sc.starts[:0]
	batchPool.Put(sc)
}

// planCode encodes the plan whose operators uses names: their vectors
// gathered from the slab, then the plan encoder over them.
func (sc *batchScratch) planCode(enc *featenc.Encoder32, uses []int32, a *nn.Arena) nn.Vec32 {
	dim := enc.PlanDim()
	opsBuf := a.Vec32(len(uses) * dim)
	for j, k := range uses {
		copy(opsBuf[j*dim:(j+1)*dim], sc.slab[int(k)*dim:])
	}
	return enc.InferOpVecs(opsBuf, len(uses), a)
}

// PredictBatch estimates A(q|v) for many feature sets at once, in input
// order. A view is a subquery of its query and scans and joins repeat
// across the pairs of a request, so a batch's plans are made of far
// fewer distinct operators than operator uses, and an operator's vector
// depends only on its tokens and the weights. Three ordered steps:
//
//  1. intern every operator of the batch, pair by pair;
//  2. encode each distinct operator once (Encoder32.InferOp) into the
//     slot of the batch slab its index owns;
//  3. per pair, gather its operators' vectors and run the rest of the
//     forward (InferOpVecs on both plans, kernels32.inferAbove).
//
// Steps 2 and 3 fan out across parallelism workers (0 selects
// runtime.NumCPU(); 1 runs serially), each owning one pooled inference
// arena that is reset per item and reused across the batch and, through
// the pool, across batches. The slab is not arena memory: step 3's
// resets would recycle it. Every item writes only what its index owns
// and runs the instructions Predict runs on the same values, so each
// element of the result is bit-identical to a standalone Predict call
// regardless of batch composition or concurrency — the property the
// serving layer's micro-batcher depends on. Nothing outlives the call.
func (m *Model) PredictBatch(fs []featenc.Features, parallelism int) []float64 {
	defer obs.StartSpan("wd.infer.batch")()
	obsInferCount.Add(int64(len(fs)))
	obsInferBatches.Inc()
	out := make([]float64, len(fs))
	if len(fs) == 0 {
		return out
	}
	k := m.kernels() // resolve once; workers share the immutable mirror
	dim := k.enc.PlanDim()

	sc := batchPool.Get().(*batchScratch)
	defer putBatchScratch(sc)
	for _, f := range fs {
		sc.starts = append(sc.starts, len(sc.uses))
		for _, seq := range f.QueryPlan {
			sc.uses = append(sc.uses, int32(sc.ops.intern(seq)))
		}
		for _, seq := range f.ViewPlan {
			sc.uses = append(sc.uses, int32(sc.ops.intern(seq)))
		}
	}
	distinct := sc.ops.seqs
	obsInferOps.Add(int64(len(sc.uses)))
	obsInferOpsDistinct.Add(int64(len(distinct)))
	if cap(sc.slab) < len(distinct)*dim {
		sc.slab = make(nn.Vec32, len(distinct)*dim)
	}
	sc.slab = sc.slab[:len(distinct)*dim]

	arenas := make([]*nn.Arena, nn.Workers(max(len(fs), len(distinct)), parallelism))
	for w := range arenas {
		arenas[w] = m.arenas.Get()
	}
	nn.ParallelForWorker(len(distinct), parallelism, func(w, j int) {
		a := arenas[w]
		a.Reset()
		k.enc.InferOp(sc.slab[j*dim:(j+1)*dim], distinct[j], a)
	})
	nn.ParallelForWorker(len(fs), parallelism, func(w, i int) {
		a := arenas[w]
		a.Reset()
		f := fs[i]
		uses := sc.uses[sc.starts[i]:]
		deQ := sc.planCode(k.enc, uses[:len(f.QueryPlan)], a)
		deV := sc.planCode(k.enc, uses[len(f.QueryPlan):][:len(f.ViewPlan)], a)
		out[i] = k.inferAbove(f, deQ, deV, a)*m.yStd + m.yMean
	})
	for _, a := range arenas {
		obsArenaBytes.Set(float64(a.Bytes()))
		m.arenas.Put(a)
	}
	return out
}
