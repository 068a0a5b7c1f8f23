package widedeep

import (
	"time"

	"autoview/internal/featenc"
	"autoview/internal/nn"
	"autoview/internal/obs"
	"autoview/internal/plan"
)

// Operator sharing of one fit: uses are the operator vectors the batches'
// plans consumed, distinct the operators actually encoded for them.
// distinct/uses near 1 means a workload with nothing to share. Pass B of
// a batch is recorded as an nn.train.step (nn.ObserveStep); passes A
// and C are timed as wd.train.encode and wd.train.opgrad.
var (
	obsTrainOps         = obs.Default.Counter("wd.train.ops", "operator uses in W-D training batches (one per operator of each query and view plan)")
	obsTrainOpsDistinct = obs.Default.Counter("wd.train.ops.distinct", "operators W-D training encoded (distinct token sequences per batch)")
	spanEncode          = obs.Default.Span("wd.train.encode")
	spanOpGrad          = obs.Default.Span("wd.train.opgrad")
)

// Row blocks of the ordered reductions: the rows one job owns.
const (
	denseJobRows = 8
	lstmJobRows  = 8
)

// batchGrad computes the gradient of one mini-batch in three ordered
// passes. A view is a subquery of its query and scans and joins repeat
// across a workload, so a batch's plans are made of far fewer distinct
// operators than operator uses, and an operator's vector depends only
// on its tokens and the (frozen) weights:
//
//	A. encode each distinct operator of the batch once, forward only:
//	   its tokens, then LSTM1 over all of them as lanes (nn.LSTMLanes);
//	B. the model above the operator vectors, forward and backward, over
//	   all pairs at once: LSTM2 over the query and view plans as lanes,
//	   the dense head (Wide, FC1–FC6) as lanes (nn.DenseLanes); each
//	   operator use's gradient is summed per distinct operator in sample
//	   order;
//	C. LSTM1's backward over the distinct operators as lanes with the
//	   summed gradients, then each operator's token backward.
//
// The operators of A and C and the pairs of B are split into one
// contiguous chunk per worker; lanes are independent, so the split
// changes no bit. No pass accumulates a parameter gradient while it
// runs: each keeps its terms, and after it an ordered reduction adds
// them onto the canonical gradients in parallel over parameter rows,
// every row's terms in sample order (B) or first-appearance order (C) —
// the fold of one zeroed replica per pair or per operator (nn's
// lanestrain.go says why that keeps every bit). Token gradients, which
// land in the embedding rows and string-encoder parameters of the
// worker's encoder replica, are copied out per operator and folded the
// same way.
//
// A chunk keeps its tapes (its LSTM tapes' and token tape's buffers, its
// arena) from one batch to the next, so they grow to the largest batch
// and a warm fit allocates little; they belong to the fit.
//
// Backpropagation is linear in the upstream gradient, so the result
// equals the per-pair gradient (Model.forward on every sample) up to
// floating-point association, and every sum has its order fixed by
// index, so it is bit-identical at any parallelism.
type batchGrad struct {
	m       *Model
	samples []Sample
	dim     int // operator vector width
	par     int

	// Interned once per fit: every distinct operator token sequence
	// has an id, and each sample lists its plans' operators by id.
	seqs       [][]plan.Tok
	qIDs, vIDs [][]int

	// Per sample, fixed for the fit: the normalized numerics
	// ([n × NumericDim]); the schema keywords' embedding rows, in order
	// and each once with how often it occurs, or (one-hot keywords) the
	// schema code itself ([n × SchemaDim]).
	dc             nn.Vec
	kwIDs          [][]int // the keywords' embedding rows, in order
	kwRows, kwUses [][]int
	schema         nn.Vec

	chunks []*chunk
	nOpC   int // chunks holding operators in the batch in flight
	nPairC int // chunks holding pairs

	// The weights transposed, per step: LSTM1's and LSTM2's for their
	// gates, FC1–FC6's for the input gradients.
	wt1, wt2 nn.Vec
	wtFC     [6]nn.Vec
	fcs      [7]*nn.Linear
	blocks   [7][]*nn.DenseLanes // per layer (Wide, FC1–FC6): the chunks' tapes

	// The reductions of pass B and pass C.
	jobsB, jobsC []func()
	ops          opGrads // the canonical token gradients

	// The batch in flight.
	batch    []int
	slot     []int      // operator id → index in distinct, -1 outside the batch
	distinct []int      // operator ids in first-appearance order
	vecs     []float64  // pass A: distinct × dim operator vectors
	uses     []nn.Vec   // pass B: per pair, the vectors of its query's operators, then its view's
	plans    [][]nn.Vec // pass B: per pair, its query's and its view's operator vectors
	dvecs    []float64  // pass B: distinct × dim summed gradients
}

// chunk is one worker's share of a batch: operators [opLo, opHi) of
// distinct in passes A and C, pairs [lo, hi) of the batch in pass B.
type chunk struct {
	enc *featenc.Encoder // replica: token backwards accumulate here
	rep opGrads          // enc's gradients of the parameters tokens read
	a   *nn.Arena

	opLo, opHi int
	toks       featenc.TokenTape
	xs         [][]nn.Vec // per operator: its token codes
	lstm1      nn.LSTMLanes
	// Per operator: its token gradients, as op.dense ‖ kw rows ‖ char rows.
	part          nn.Vec
	partOff       []int
	opKw, opChars [][]int

	lo, hi int
	lstm2  nn.LSTMLanes
	head   [7]nn.DenseLanes // Wide, FC1–FC6
	d      []float64        // per pair: prediction − standardized target
	dSch   nn.Vec           // per pair: each schema keyword's gradient [n × SchemaDim]
	dPlan  nn.Vec           // NoSequence, per plan: each operator use's gradient [2n × dim]
}

// newBatchGrad interns the samples' operators and precomputes what a
// fit never changes; the model's normalizer and target scale must be
// fitted. parallelism ≤ 0 selects runtime.NumCPU().
func (m *Model) newBatchGrad(samples []Sample, parallelism int) *batchGrad {
	par := nn.Workers(1<<30, parallelism)
	g := &batchGrad{m: m, samples: samples, dim: m.Enc.PlanDim(), par: par}
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

	nd, sd := featenc.NumericDim, m.Enc.SchemaDim()
	g.dc = make(nn.Vec, 0, len(samples)*nd)
	for _, s := range samples {
		g.dc = append(g.dc, m.Norm.Apply(s.F.Numeric)...)
	}
	if m.Enc.KwEmb != nil {
		g.kwIDs = make([][]int, len(samples))
		g.kwRows, g.kwUses = make([][]int, len(samples)), make([][]int, len(samples))
		rows := m.Enc.KwEmb.W.Rows
		for i, s := range samples {
			for _, k := range s.F.Schema {
				id := m.Enc.Vocab.ID(k)
				if id < 0 || id >= rows {
					id = 0 // Embedding.Forward's clamp
				}
				g.kwIDs[i] = append(g.kwIDs[i], id)
				j := 0
				for j < len(g.kwRows[i]) && g.kwRows[i][j] != id {
					j++
				}
				if j == len(g.kwRows[i]) {
					g.kwRows[i], g.kwUses[i] = append(g.kwRows[i], id), append(g.kwUses[i], 0)
				}
				g.kwUses[i][j]++
			}
		}
	} else {
		g.schema = make(nn.Vec, len(samples)*sd)
		for i, s := range samples {
			if len(s.F.Schema) > 0 {
				code, _ := m.Enc.EncodeSchema(s.F.Schema, nil)
				copy(g.schema[i*sd:], code)
			}
		}
	}

	g.ops = opGradsOf(m.Enc)
	g.fcs = [7]*nn.Linear{m.Wide, m.FC1, m.FC2, m.FC3, m.FC4, m.FC5, m.FC6}
	for i, l := range g.fcs[1:] {
		g.wtFC[i] = make(nn.Vec, l.W.Size())
	}
	if e := m.Enc; e.LSTM1 != nil {
		g.wt1, g.wt2 = make(nn.Vec, e.LSTM1.Cell.W.Size()), make(nn.Vec, e.LSTM2.Cell.W.Size())
	}
	for range par {
		c := &chunk{enc: m.Enc.ShareWeights(), a: nn.NewArena()}
		c.rep = opGradsOf(c.enc)
		g.chunks = append(g.chunks, c)
	}
	g.buildJobs()
	return g
}

// buildJobs lists the ordered reductions, each owning disjoint gradient
// rows: pass B's over LSTM2, the schema's keyword rows and the dense
// head, and pass C's over LSTM1 and the operators' token gradients —
// the largest first, so that a worker that starts late finds the small
// ones left.
func (g *batchGrad) buildJobs() {
	var dense []func()
	for li, l := range g.fcs {
		for r0 := 0; r0 < l.OutDim(); r0 += denseJobRows {
			r1 := min(r0+denseJobRows, l.OutDim())
			dense = append(dense, func() { nn.AddDenseGrads(l, g.blocks[li], r0, r1) })
		}
	}
	lstmJobs := func(cell *nn.LSTMCell, tape func(c *chunk) *nn.LSTMLanes, nc func() int) (jobs []func()) {
		G := 4 * cell.Hidden
		for r0 := 0; r0 < G; r0 += lstmJobRows {
			r1 := min(r0+lstmJobRows, G)
			jobs = append(jobs, func() {
				for _, c := range g.chunks[:nc()] {
					tape(c).FoldGrads(r0, r1)
				}
			})
		}
		return jobs
	}
	e := g.m.Enc
	if e.LSTM2 != nil {
		g.jobsB = append(g.jobsB, lstmJobs(e.LSTM2.Cell, func(c *chunk) *nn.LSTMLanes { return &c.lstm2 }, func() int { return g.nPairC })...)
		g.jobsC = append(g.jobsC, lstmJobs(e.LSTM1.Cell, func(c *chunk) *nn.LSTMLanes { return &c.lstm1 }, func() int { return g.nOpC })...)
	}
	if e.KwEmb != nil {
		g.jobsB = append(g.jobsB, g.foldSchema)
	}
	g.jobsB = append(g.jobsB, dense...)
	g.jobsC = append(g.jobsC, g.foldTokens)
}

// opGrads are the gradients of the parameters an operator's tokens
// read, as pass C zeroes and copies them out per operator: the string
// encoder's convolution blocks whole, the two embedding tables (nil when
// one-hot) only in the rows of the operator in flight.
type opGrads struct {
	dense     []*nn.Param
	kw, chars *nn.Param
	size      int // elements of dense
}

func opGradsOf(e *featenc.Encoder) opGrads {
	var o opGrads
	if e.KwEmb != nil {
		o.kw = e.KwEmb.W
	}
	if e.Str != nil {
		o.chars = e.Str.CharEmb.W
		for _, p := range e.Str.Params() {
			if p != o.chars {
				o.dense = append(o.dense, p)
				o.size += p.Size()
			}
		}
	}
	return o
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
	m := g.m
	nn.ZeroGrads(m.Params())
	for i, l := range g.fcs[1:] {
		nn.Transpose(g.wtFC[i], l.W.Val, l.OutDim(), l.InDim())
	}
	if e := m.Enc; e.LSTM1 != nil {
		for _, t := range []struct {
			dst  nn.Vec
			cell *nn.LSTMCell
		}{{g.wt1, e.LSTM1.Cell}, {g.wt2, e.LSTM2.Cell}} {
			nn.Transpose(t.dst, t.cell.W.Val, 4*t.cell.Hidden, t.cell.In+t.cell.Hidden)
		}
	}
	for _, c := range g.chunks {
		c.a.Reset()
	}
	n := len(g.distinct)
	size := n * g.dim
	if cap(g.vecs) < size {
		g.vecs, g.dvecs = make([]float64, size), make([]float64, size)
	}
	g.vecs, g.dvecs = g.vecs[:size], g.dvecs[:size]

	// Operators split by tokens, pairs by operators (plus four for the
	// head: about its share of a pair's work).
	g.nOpC, g.nPairC = min(g.par, n), min(g.par, len(batch))
	split(g.chunks[:g.nOpC], n, func(k int) int { return len(g.seqs[g.distinct[k]]) }, func(c *chunk, lo, hi int) {
		c.opLo, c.opHi = lo, hi
	})
	split(g.chunks[:g.nPairC], len(batch), func(i int) int {
		return 4 + len(g.qIDs[batch[i]]) + len(g.vIDs[batch[i]])
	}, func(c *chunk, lo, hi int) { c.lo, c.hi = lo, hi })

	// A.
	start := spanEncode.Begin()
	g.eachChunk(g.nOpC, g.encodeOps)
	spanEncode.End(start)

	// B.
	timing := obs.Enabled()
	var t0 time.Time
	if timing {
		t0 = time.Now()
	}
	g.uses, g.plans = g.uses[:0], g.plans[:0]
	for _, si := range batch {
		for _, ids := range [2][]int{g.qIDs[si], g.vIDs[si]} {
			from := len(g.uses)
			for _, id := range ids {
				k := g.slot[id]
				g.uses = append(g.uses, g.vecs[k*g.dim:(k+1)*g.dim:(k+1)*g.dim])
			}
			g.plans = append(g.plans, g.uses[from:len(g.uses):len(g.uses)])
		}
	}
	g.eachChunk(g.nPairC, g.pairs)
	var t1 time.Time
	if timing {
		t1 = time.Now()
	}
	for li := range g.blocks {
		g.blocks[li] = g.blocks[li][:0]
		for _, c := range g.chunks[:g.nPairC] {
			g.blocks[li] = append(g.blocks[li], &c.head[li])
		}
	}
	g.reduce(g.jobsB)
	var loss float64
	for _, c := range g.chunks[:g.nPairC] {
		for _, d := range c.d[:c.hi-c.lo] {
			loss += d * d
		}
	}
	g.sumOpGrads()
	var step, reduce time.Duration
	if timing {
		step, reduce = time.Since(t0), time.Since(t1)
	}
	nn.ObserveStep(len(batch), step, reduce)

	// C.
	start = spanOpGrad.Begin()
	g.eachChunk(g.nOpC, g.opBackward)
	g.reduce(g.jobsC)
	spanOpGrad.End(start)

	for _, id := range g.distinct {
		g.slot[id] = -1
	}
	return loss
}

// split hands each chunk a contiguous, non-empty range of the n items,
// the ranges about equal in total weight.
func split(chunks []*chunk, n int, weight func(i int) int, set func(c *chunk, lo, hi int)) {
	total := 0
	for i := range n {
		total += weight(i)
	}
	k, seen := 0, 0
	for ci, c := range chunks {
		lo := k
		left := len(chunks) - 1 - ci // the chunks after this one, an item each at least
		for k < n-left && (k == lo || seen*len(chunks) < (ci+1)*total) {
			seen += weight(k)
			k++
		}
		set(c, lo, k)
	}
}

// reduce runs jobs across the workers.
func (g *batchGrad) reduce(jobs []func()) {
	nn.ParallelFor(len(jobs), g.par, func(j int) { jobs[j]() })
}

// eachChunk runs fn on the first n chunks in parallel.
func (g *batchGrad) eachChunk(n int, fn func(c *chunk)) {
	nn.ParallelFor(n, n, func(w int) { fn(g.chunks[w]) })
}

// encodeOps is pass A over one chunk's operators: their tokens on the
// chunk's replica, then LSTM1 over all of them (or, NoSequence, each
// operator's average of its tokens, AvgPool's arithmetic), the vectors
// copied out of the tapes.
func (g *batchGrad) encodeOps(c *chunk) {
	c.toks.Reset(c.enc, c.a)
	c.xs = c.xs[:0]
	for k := c.opLo; k < c.opHi; k++ {
		c.toks.Add(g.seqs[g.distinct[k]])
		c.xs = append(c.xs, c.toks.Tokens(k-c.opLo))
	}
	if !g.m.Enc.Cfg.NoSequence {
		c.lstm1.Forward(g.m.Enc.LSTM1.Cell, g.wt1, c.xs)
		for k := range c.xs {
			copy(g.vecs[(c.opLo+k)*g.dim:], c.lstm1.Out(k))
		}
		return
	}
	for k, toks := range c.xs {
		v := g.vecs[(c.opLo+k)*g.dim:][:g.dim]
		clear(v)
		for _, tok := range toks {
			for f, x := range tok {
				v[f] += x
			}
		}
		inv := 1 / float64(len(toks))
		for f := range v {
			v[f] *= inv
		}
	}
}

// pairs is pass B over one chunk's pairs: the model above the operator
// vectors, forward and backward, as lanes; Model.forwardOps is the same
// graph on one pair.
func (g *batchGrad) pairs(c *chunk) {
	m, a := g.m, c.a
	n := c.hi - c.lo
	L := nn.PadLanes(n)
	nd, sd, pd := featenc.NumericDim, m.Enc.SchemaDim(), g.dim
	drDim := nd + sd + 2*pd
	batch := g.batch[c.lo:c.hi]

	// Dr = concat(Dc, Dm, De(query), De(view)), feature-major.
	dr := a.Vec(drDim * L)
	for p, si := range batch {
		for f, v := range g.dc[si*nd:][:nd] {
			dr[f*L+p] = v
		}
		if g.kwRows == nil {
			for f, v := range g.schema[si*sd:][:sd] {
				dr[(nd+f)*L+p] = v
			}
			continue
		}
		// EncodeSchema: the keywords' rows summed from +0, in order, then
		// scaled by 1/count.
		ids := g.kwIDs[si]
		if len(ids) == 0 {
			continue
		}
		sum := a.Vec(sd)
		for _, id := range ids {
			for f, v := range m.Enc.KwEmb.W.Row(id) {
				sum[f] += v
			}
		}
		inv := 1 / float64(len(ids))
		for f, v := range sum {
			dr[(nd+f)*L+p] = v * inv
		}
	}
	plans := g.plans[2*c.lo : 2*c.hi]
	if m.Enc.Cfg.NoSequence {
		for s, ops := range plans {
			if len(ops) == 0 {
				continue
			}
			sum := a.Vec(pd)
			for _, v := range ops {
				for f, x := range v {
					sum[f] += x
				}
			}
			inv := 1 / float64(len(ops))
			row := nd + sd + (s%2)*pd
			for f, v := range sum {
				dr[(row+f)*L+s/2] = v * inv
			}
		}
	} else {
		c.lstm2.Forward(m.Enc.LSTM2.Cell, g.wt2, plans)
		for s := range plans {
			row := nd + sd + (s%2)*pd
			for f, v := range c.lstm2.Out(s) {
				dr[(row+f)*L+s/2] = v
			}
		}
	}

	// The head.
	h := &c.head
	wideDim := m.Wide.OutDim()
	dw := h[0].Forward(m.Wide, dr[:nd*L], n, false, a)
	a1 := h[1].Forward(m.FC1, dr, n, true, a)
	a2 := h[2].Forward(m.FC2, a1, n, true, a)
	z1 := addLanes(dr, a2, a.Vec(drDim*L))
	a3 := h[3].Forward(m.FC3, z1, n, true, a)
	a4 := h[4].Forward(m.FC4, a3, n, true, a)
	var reg nn.Vec // the regressor's input: Dw, Z2 = Z1 ⊕ a4, or both
	switch {
	case m.cfg.WideOnly:
		reg = dw
	case m.cfg.DeepOnly:
		reg = addLanes(z1, a4, a.Vec(drDim*L))
	default:
		reg = a.Vec((wideDim + drDim) * L)
		copy(reg, dw)
		addLanes(z1, a4, reg[wideDim*L:])
	}
	a5 := h[5].Forward(m.FC5, reg, n, true, a)
	out := h[6].Forward(m.FC6, a5, n, false, a)

	// The loss: dL/dŷ = 2d/|batch| per pair.
	c.d = c.d[:0]
	dOut := a.Vec(L)
	for p, si := range batch {
		d := out[p] - (g.samples[si].Y-m.yMean)/m.yStd
		c.d = append(c.d, d)
		dOut[p] = 2 * d / float64(len(g.batch))
	}

	dA5 := h[6].Backward(dOut, g.wtFC[5], a)
	dReg := h[5].Backward(dA5, g.wtFC[4], a)
	var dDw, dZ2 nn.Vec
	switch {
	case m.cfg.WideOnly:
		dDw, dZ2 = dReg, a.Vec(drDim*L)
	case m.cfg.DeepOnly:
		dDw, dZ2 = a.Vec(wideDim*L), dReg
	default:
		dDw, dZ2 = dReg[:wideDim*L], dReg[wideDim*L:]
	}
	// Block 2 backward: z2 = z1 + a4.
	dA3 := h[4].Backward(dZ2, g.wtFC[3], a)
	dZ1 := addLanes(dZ2, h[3].Backward(dA3, g.wtFC[2], a), a.Vec(drDim*L))
	// Block 1 backward: z1 = dr + a2.
	dA1 := h[2].Backward(dZ1, g.wtFC[1], a)
	dDr := addLanes(dZ1, h[1].Backward(dA1, g.wtFC[0], a), a.Vec(drDim*L))
	h[0].Backward(dDw, nil, a)

	// The schema keywords' gradient: AvgPool's dy/count, per pair.
	if g.kwRows != nil {
		c.dSch = zeroed(c.dSch, n*sd)
		for p, si := range batch {
			if k := len(g.kwIDs[si]); k > 0 {
				inv := 1 / float64(k)
				for f := range sd {
					c.dSch[p*sd+f] = dDr[(nd+f)*L+p] * inv
				}
			}
		}
	}
	// The plans' gradient, back to every operator use.
	if m.Enc.Cfg.NoSequence {
		c.dPlan = zeroed(c.dPlan, len(plans)*pd)
		for s, ops := range plans {
			if len(ops) == 0 {
				continue
			}
			inv := 1 / float64(len(ops))
			row := nd + sd + (s%2)*pd
			for f := range pd {
				c.dPlan[s*pd+f] = dDr[(row+f)*L+s/2] * inv
			}
		}
		return
	}
	dh := a.Vec(len(plans) * pd)
	for s := range plans {
		row := nd + sd + (s%2)*pd
		for f := range pd {
			dh[s*pd+f] = dDr[(row+f)*L+s/2]
		}
	}
	c.lstm2.Backward(dh, 2)
}

// zeroed returns v resized to n zeros, in v's storage when it is large
// enough: the per-chunk buffers a batch's tapes leave for the
// reductions, which must outlive nothing but the batch.
func zeroed(v nn.Vec, n int) nn.Vec {
	if cap(v) < n {
		return make(nn.Vec, n)
	}
	v = v[:n]
	clear(v)
	return v
}

// addLanes writes x ⊕ y into out and returns it: a residual connection
// forward, and the sum of its two gradients backward.
func addLanes(x, y, out nn.Vec) nn.Vec {
	out = out[:len(x)]
	for i := range out {
		out[i] = x[i] + y[i]
	}
	return out
}

// useGrad returns the gradient pass B left for use k of plan side
// (0 query, 1 view) of the batch's pair i.
func (g *batchGrad) useGrad(i, side, k int) nn.Vec {
	for _, c := range g.chunks[:g.nPairC] {
		if i < c.hi {
			s := 2*(i-c.lo) + side
			if g.m.Enc.Cfg.NoSequence {
				return c.dPlan[s*g.dim:][:g.dim]
			}
			return c.lstm2.InputGrad(s, k)
		}
	}
	panic("widedeep: pair outside the batch")
}

// sumOpGrads sums every operator use's gradient per distinct operator,
// in sample order, query plan before view plan.
func (g *batchGrad) sumOpGrads() {
	clear(g.dvecs)
	for i, si := range g.batch {
		for side, ids := range [2][]int{g.qIDs[si], g.vIDs[si]} {
			for k, id := range ids {
				sum := g.dvecs[g.slot[id]*g.dim:][:g.dim]
				for f, d := range g.useGrad(i, side, k) {
					sum[f] += d
				}
			}
		}
	}
}

// foldSchema adds every pair's schema-keyword gradient onto the keyword
// embedding's rows, in sample order: each row's share of a pair (its
// keyword's gradient once per occurrence) is summed from +0 first.
func (g *batchGrad) foldSchema() {
	emb := g.m.Enc.KwEmb.W
	sd := emb.Cols
	for _, c := range g.chunks[:g.nPairC] {
		for p, si := range g.batch[c.lo:c.hi] {
			d := c.dSch[p*sd:][:sd]
			for j, r := range g.kwRows[si] {
				uses := g.kwUses[si][j]
				row := emb.GradRow(r)
				for f, v := range d {
					var part float64
					for u := 0; u < uses; u++ {
						part += v
					}
					row[f] += part
				}
			}
		}
	}
}

// opBackward is pass C over one chunk's operators: LSTM1's backward
// over all of them with the summed gradients, then per operator its
// tokens' backward on the chunk's replica — the rows and parameters it
// touches zeroed first and copied out after, for foldTokens.
func (g *batchGrad) opBackward(c *chunk) {
	e, r := g.m.Enc, &c.rep
	noSeq := e.Cfg.NoSequence
	if !noSeq {
		c.lstm1.Backward(g.dvecs[c.opLo*g.dim:c.opHi*g.dim], 1)
	}
	for len(c.opKw) < c.opHi-c.opLo {
		c.opKw, c.opChars = append(c.opKw, nil), append(c.opChars, nil)
	}
	c.partOff = append(c.partOff[:0], 0)
	size := 0
	for k := c.opLo; k < c.opHi; k++ {
		j := k - c.opLo
		c.opKw[j], c.opChars[j] = e.OpRows(g.seqs[g.distinct[k]], c.opKw[j][:0], c.opChars[j][:0])
		size += r.size + g.rowsSize(r.kw, c.opKw[j]) + g.rowsSize(r.chars, c.opChars[j])
		c.partOff = append(c.partOff, size)
	}
	c.part = zeroed(c.part, size)
	for k := c.opLo; k < c.opHi; k++ {
		j := k - c.opLo
		nn.ZeroGrads(r.dense)
		r.kw.ZeroGradRows(c.opKw[j])
		r.chars.ZeroGradRows(c.opChars[j])
		if noSeq {
			// AvgPool's backward: every token gets dy/count.
			dy := g.dvecs[k*g.dim : (k+1)*g.dim]
			shared := c.a.Vec(g.dim)
			inv := 1 / float64(len(c.xs[j]))
			for f, v := range dy {
				shared[f] = v * inv
			}
			for t := range c.xs[j] {
				c.toks.Backward(j, t, shared)
			}
		} else {
			for t := range c.xs[j] {
				c.toks.Backward(j, t, c.lstm1.InputGrad(j, t))
			}
		}
		part := c.part[c.partOff[j]:c.partOff[j+1]]
		for _, p := range r.dense {
			part = part[copy(part, p.Grad):]
		}
		for _, t := range []struct {
			p    *nn.Param
			rows []int
		}{{r.kw, c.opKw[j]}, {r.chars, c.opChars[j]}} {
			for _, row := range t.rows {
				part = part[copy(part, t.p.GradRow(row)):]
			}
		}
	}
}

// rowsSize is the elements of p's rows (0 for a nil p).
func (g *batchGrad) rowsSize(p *nn.Param, rows []int) int {
	if p == nil {
		return 0
	}
	return len(rows) * p.Cols
}

// foldTokens adds every operator's token gradients, as opBackward
// copied them out, onto the canonical ones in first-appearance order.
func (g *batchGrad) foldTokens() {
	o := &g.ops
	for _, c := range g.chunks[:g.nOpC] {
		for j := range c.opHi - c.opLo {
			part := c.part[c.partOff[j]:c.partOff[j+1]]
			for _, p := range o.dense {
				addTo(p.Grad, part[:p.Size()])
				part = part[p.Size():]
			}
			for _, t := range []struct {
				p    *nn.Param
				rows []int
			}{{o.kw, c.opKw[j]}, {o.chars, c.opChars[j]}} {
				for _, row := range t.rows {
					addTo(t.p.GradRow(row), part[:t.p.Cols])
					part = part[t.p.Cols:]
				}
			}
		}
	}
}

// addTo adds src onto dst element by element.
func addTo(dst, src nn.Vec) {
	for i, v := range src {
		dst[i] += v
	}
}
