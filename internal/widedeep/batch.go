package widedeep

import (
	"sync"

	"autoview/internal/featenc"
	"autoview/internal/nn"
	"autoview/internal/obs"
)

// Sharing in the batches served. Plans first: encoded/uses near 0 =
// traffic that keeps asking about plans whose code the plan cache
// already carries, 1 = every text new. Then, over the plans that were
// encoded, the twins of wd.train.ops and wd.train.ops.distinct, with
// the same reading (distinct/uses near 1 = batches with nothing to
// share). Predict moves none of them.
var (
	obsInferPlans        = obs.Default.Counter("wd.infer.plans", "plan uses in W-D PredictBatch batches (two per pair: the query plan and the view plan)")
	obsInferPlansEncoded = obs.Default.Counter("wd.infer.plans.encoded", "plan uses W-D PredictBatch ran the plan encoder for (no code memoized under the current f32 mirror)")
	obsInferOps          = obs.Default.Counter("wd.infer.ops", "operator uses in the plans W-D PredictBatch encoded (one per operator of each such plan)")
	obsInferOpsDistinct  = obs.Default.Counter("wd.infer.ops.distinct", "operators W-D PredictBatch encoded (distinct token sequences per batch)")
)

// batchScratch is the operator sharing of one PredictBatch call: which
// operators the batch holds, which of them each plan uses, and their
// vectors. Pooled, so a steady-state batch allocates none of it; nothing
// in it is read after the call that filled it.
type batchScratch struct {
	ops    opInterner
	codes  []nn.Vec32 // pair i's memoized query and view plan codes at [2i] and [2i+1]; nil = encode
	uses   []int32    // operator index per use of the plans to encode, pair by pair: query operators, then view operators
	starts []int      // starts[i] is where pair i's uses begin
	slab   nn.Vec32   // operator k's vector at [k*dim, (k+1)*dim)
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// putBatchScratch empties the scratch — a pooled one must not keep a
// finished request's plans alive — and returns it to the pool.
func putBatchScratch(sc *batchScratch) {
	sc.ops.reset()
	clear(sc.codes)
	sc.codes, sc.uses, sc.starts = sc.codes[:0], sc.uses[:0], sc.starts[:0]
	batchPool.Put(sc)
}

// planCode encodes the plan whose operators uses names: their vectors
// gathered from the slab, then the plan encoder over them, which leaves
// the code in pf's memo slot for the batches to come.
func (sc *batchScratch) planCode(enc *featenc.Encoder32, pf *featenc.PlanFeat, uses []int32, a *nn.Arena) nn.Vec32 {
	dim := enc.PlanDim()
	opsBuf := a.Vec32(len(uses) * dim)
	for j, k := range uses {
		copy(opsBuf[j*dim:(j+1)*dim], sc.slab[int(k)*dim:])
	}
	return enc.InferOpVecsMemo(pf, opsBuf, len(uses), a)
}

// PredictBatch estimates A(q|v) for many feature sets at once, in input
// order. A view is a subquery of its query and scans and joins repeat
// across the pairs of a request, so a batch's plans are made of far
// fewer distinct operators than operator uses, and an operator's vector
// depends only on its tokens and the weights. So does a whole plan's
// code, and traffic keeps asking about the same plans: a plan whose
// PlanFeat carries the code the current mirror computed for it (see
// featenc.PlanFeat) is not encoded again. Three ordered steps:
//
//  1. pair by pair, look each plan's memoized code up once, and intern
//     every operator of the plans that have none;
//  2. encode each distinct operator once (Encoder32.InferOp) into the
//     slot of the batch slab its index owns;
//  3. per pair, gather the operators' vectors of its plans still to
//     encode, run the plan encoder over them (InferOpVecsMemo, which
//     memoizes the code) and then the rest of the forward
//     (kernels32.inferAbove).
//
// Steps 2 and 3 fan out across parallelism workers (0 selects
// runtime.NumCPU(); 1 runs serially), each owning one pooled inference
// arena that is reset per item and reused across the batch and, through
// the pool, across batches. The slab is not arena memory: step 3's
// resets would recycle it. Every item writes only what its index owns
// and runs the instructions Predict runs on the same values, so each
// element of the result is bit-identical to a standalone Predict call
// regardless of batch composition, concurrency or what was memoized (a
// memoized code is the vector InferOpVecs returned the first time) —
// the property the serving layer's micro-batcher depends on. Predict
// neither reads nor fills a memo. Nothing but the memoized codes
// outlives the call.
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
	encoded := 0
	for _, f := range fs {
		sc.starts = append(sc.starts, len(sc.uses))
		deQ, deV := k.enc.PlanCode(f.QueryFeat), k.enc.PlanCode(f.ViewFeat)
		sc.codes = append(sc.codes, deQ, deV)
		if deQ == nil {
			encoded++
			for _, seq := range f.QueryPlan {
				sc.uses = append(sc.uses, int32(sc.ops.intern(seq)))
			}
		}
		if deV == nil {
			encoded++
			for _, seq := range f.ViewPlan {
				sc.uses = append(sc.uses, int32(sc.ops.intern(seq)))
			}
		}
	}
	distinct := sc.ops.seqs
	obsInferPlans.Add(int64(2 * len(fs)))
	obsInferPlansEncoded.Add(int64(encoded))
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
		deQ, deV := sc.codes[2*i], sc.codes[2*i+1]
		if deQ == nil {
			deQ = sc.planCode(k.enc, f.QueryFeat, uses[:len(f.QueryPlan)], a)
			uses = uses[len(f.QueryPlan):]
		}
		if deV == nil {
			deV = sc.planCode(k.enc, f.ViewFeat, uses[:len(f.ViewPlan)], a)
		}
		out[i] = k.inferAbove(f, deQ, deV, a)*m.yStd + m.yMean
	})
	for _, a := range arenas {
		obsArenaBytes.Set(float64(a.Bytes()))
		m.arenas.Put(a)
	}
	return out
}
