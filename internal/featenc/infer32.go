package featenc

import (
	"sync/atomic"

	"autoview/internal/nn"
	"autoview/internal/plan"
)

// Encoder32 is the float32 inference mirror of Encoder: the same
// architecture over flat f32 weight copies and the packed kernels of
// internal/nn, materialized from a trained Encoder (NewEncoder32) and
// rebuilt whenever the f64 weights change. It is the encoder's only
// forward-only path; outputs agree with the tape Encode* forward within
// the tolerance budgets pinned by the parity tests.
//
// The mirror folds work that the tape forward redoes per token: kwPre1
// precomputes B + Wx·code(kw) — the input half of LSTM1's gate
// pre-activations — for every vocabulary keyword, so the dominant token
// kind costs zero input-matvec work per step. The fold is bit-identical
// to the unfolded f32 computation (the kernels reduce in the canonical
// order), so it never widens the f32-vs-f64 envelope.
type Encoder32 struct {
	cfg    Config
	vocab  *Vocab
	tokDim int

	kwEmb *nn.Embedding32  // nil when KeywordOneHot
	str   *StringEncoder32 // nil when StringOneHot

	lstm1, lstm2 *nn.LSTMCell32 // nil when NoSequence
	kwPre1       nn.Vec32       // [vocab × 4H] folded keyword gate pre-activations

	planDim, schemaDim int

	memo *opMemo // LSTM1 states by token prefix; nil under NoSequence, and in a memo-less twin

	// gen names this mirror among all ever built: the tag on the plan
	// codes it leaves in PlanFeat memo slots. A rebuilt mirror (Fit,
	// Load, hot-reload, InvalidateKernels) draws a new one, which is
	// what makes every code of the old weights stale.
	gen uint64
}

// mirrorGen hands out Encoder32 generations, starting at 1.
var mirrorGen atomic.Uint64

// StringEncoder32 mirrors StringEncoder over flat f32 matrices.
type StringEncoder32 struct {
	charEmb *nn.Embedding32
	b1, b2  *nn.ConvBlock32
	dim     int
}

// NewStringEncoder32 materializes the mirror of a trained encoder.
func NewStringEncoder32(s *StringEncoder) *StringEncoder32 {
	return &StringEncoder32{
		charEmb: nn.NewEmbedding32(s.CharEmb),
		b1:      nn.NewConvBlock32(s.Block1),
		b2:      nn.NewConvBlock32(s.Block2),
		dim:     s.Dim(),
	}
}

// Infer encodes a string forward-only (char embedding → two conv
// blocks → row-average pooling), mirroring StringEncoder.Encode.
func (s *StringEncoder32) Infer(str string, a *nn.Arena) nn.Vec32 {
	if len(str) == 0 {
		return a.Vec32(s.dim)
	}
	T, D := len(str), s.dim
	m := a.Vec32(T * D)
	for i := 0; i < T; i++ {
		copy(m[i*D:], s.charEmb.Row(charID(str[i])))
	}
	m1 := s.b1.Infer(m, T, D, a)
	m2 := s.b2.Infer(m1, T, D, a)
	out := a.Vec32(D)
	nn.AvgPoolRows32(out, m2, T, D)
	return out
}

// NewEncoder32 materializes the float32 mirror of a trained encoder.
func NewEncoder32(e *Encoder) *Encoder32 {
	m := &Encoder32{
		cfg:       e.Cfg,
		vocab:     e.Vocab,
		tokDim:    e.tokDim,
		planDim:   e.PlanDim(),
		schemaDim: e.SchemaDim(),
		gen:       mirrorGen.Add(1),
	}
	if e.KwEmb != nil {
		m.kwEmb = nn.NewEmbedding32(e.KwEmb)
	}
	if e.Str != nil {
		m.str = NewStringEncoder32(e.Str)
	}
	if e.LSTM1 != nil {
		m.lstm1 = nn.NewLSTMCell32(e.LSTM1.Cell)
		m.lstm2 = nn.NewLSTMCell32(e.LSTM2.Cell)
		m.foldKeywordPre()
		m.memo = newOpMemo()
	}
	return m
}

// foldKeywordPre precomputes the LSTM1 input half for every vocabulary
// keyword: kwPre1[id] = B + Wx·code(id). Under KeywordOneHot the code
// is a one-hot, so the product is B plus column id of Wx; otherwise it
// is the same PreX matvec the runtime path would perform, making the
// fold bit-identical to on-the-fly evaluation.
func (m *Encoder32) foldKeywordPre() {
	V := m.vocab.Size()
	H4 := 4 * m.lstm1.Hidden
	m.kwPre1 = make(nn.Vec32, V*H4)
	for id := 0; id < V; id++ {
		dst := m.kwPre1[id*H4 : id*H4+H4]
		if m.cfg.KeywordOneHot {
			col := m.lstm1.Wx[id*H4 : id*H4+H4]
			for r, b := range m.lstm1.B {
				dst[r] = b + col[r]
			}
			continue
		}
		m.lstm1.PreX(dst, m.kwEmb.Row(id))
	}
}

// histInto builds the averaged char one-hot (N-Str string code) into
// dst (width charSpace, pre-zeroed).
func histInto(dst nn.Vec32, s string) {
	if len(s) == 0 {
		return
	}
	inv := 1 / float32(len(s))
	for i := 0; i < len(s); i++ {
		dst[charID(s[i])] += inv
	}
}

// stringVec produces the (unpadded) string code.
func (m *Encoder32) stringVec(s string, a *nn.Arena) nn.Vec32 {
	if m.cfg.StringOneHot {
		v := a.Vec32(charSpace)
		histInto(v, s)
		return v
	}
	return m.str.Infer(s, a)
}

// tokenVecInto writes one token's padded code into dst (width tokDim,
// pre-zeroed) — the N-Exp path, which needs materialized vectors for
// average pooling.
func (m *Encoder32) tokenVecInto(dst nn.Vec32, t plan.Tok, a *nn.Arena) {
	if t.Str {
		if m.cfg.StringOneHot {
			histInto(dst, t.Text)
			return
		}
		copy(dst, m.str.Infer(t.Text, a))
		return
	}
	if m.cfg.KeywordOneHot {
		dst[m.vocab.ID(t.Text)] = 1
		return
	}
	copy(dst, m.kwEmb.Row(m.vocab.ID(t.Text)))
}

// InferOp mirrors Encoder.EncodeOp: one operator's tokens → its vector
// in dst (width PlanDim, overwritten) — LSTM1 from a zero state over the
// folded keyword table and the string encoder, or the token average
// under N-Exp. The vector depends on nothing but seq and the weights,
// which is what lets PredictBatch encode an operator once per batch and
// the mirror's memo keep LSTM1 states across calls: InferOp resumes
// from the longest memoized prefix of seq and runs LSTM1 (and the
// string encoder) only on the tokens after it, to the same bits. It
// reports what it found memoized and how many LSTM1 steps it ran.
func (m *Encoder32) InferOp(dst nn.Vec32, seq []plan.Tok, a *nn.Arena) (OpReuse, int) {
	return m.InferOpHashed(dst, seq, HashOp(seq), a)
}

// InferOpHashed is InferOp for a caller that holds HashOp(seq) already.
func (m *Encoder32) InferOpHashed(dst nn.Vec32, seq []plan.Tok, hash uint64, a *nn.Arena) (OpReuse, int) {
	if m.cfg.NoSequence {
		tokBuf := a.Vec32(len(seq) * m.tokDim)
		for j, tok := range seq {
			m.tokenVecInto(tokBuf[j*m.tokDim:(j+1)*m.tokDim], tok, a)
		}
		nn.AvgPoolRows32(dst, tokBuf, len(seq), m.tokDim)
		return OpCold, 0
	}
	H := m.lstm1.Hidden
	H4 := 4 * H
	h := dst // the operator vector is LSTM1's final hidden state
	c := a.Vec32(H)
	reuse, start, run := OpCold, 0, uint64(fnvOffset)
	mm := m.memo
	if mm != nil {
		if e := mm.find(hash, seq); e != nil {
			copy(h, e.hc[:H])
			return OpMemoized, 0
		}
		if e := mm.longestPrefix(seq); e != nil {
			copy(h, e.hc[:H])
			copy(c, e.hc[H:])
			reuse, start, run = OpResumed, len(e.toks), e.hash
		}
	}
	if reuse == OpCold {
		clear(h)
	}
	pre := a.Vec32(H4)
	preX := a.Vec32(H4)
	for i := start; i < len(seq); i++ {
		tok := seq[i]
		px := preX
		if tok.Str {
			if mm != nil && i > start && mm.admit(run) {
				mm.put(run, seq[:i], h, c)
			}
			s := m.stringVec(tok.Text, a)
			m.lstm1.PreX(preX, s) // zero-padding beyond len(s) contributes nothing
		} else {
			id := m.vocab.ID(tok.Text)
			px = m.kwPre1[id*H4 : id*H4+H4]
		}
		m.lstm1.Step(h, c, pre, px)
		run = hashTok(run, tok)
	}
	if mm != nil && mm.admit(hash) {
		mm.put(hash, seq, h, c)
	}
	return reuse, len(seq) - start
}

// InferOpVecs mirrors Encoder.EncodeOpVecs: the plan code of n operator
// vectors laid out back to back in opsBuf — LSTM2, or their average
// under N-Exp.
func (m *Encoder32) InferOpVecs(opsBuf nn.Vec32, n int, a *nn.Arena) nn.Vec32 {
	out := a.Vec32(m.planDim)
	if n == 0 {
		return out
	}
	if m.cfg.NoSequence {
		nn.AvgPoolRows32(out, opsBuf, n, m.tokDim)
		return out
	}
	H := m.lstm2.Hidden
	H4 := 4 * H
	preX := a.Vec32(H4)
	pre := a.Vec32(H4)
	c := a.Vec32(H)
	for i := 0; i < n; i++ {
		m.lstm2.PreX(preX, opsBuf[i*H:(i+1)*H])
		m.lstm2.Step(out, c, pre, preX)
	}
	return out
}

// PlanCode returns the code this mirror left in pf's memo slot, or nil:
// pf is nil (hand-built Features), the slot is empty, or another
// mirror's weights computed what it holds. The result is heap memory,
// shared and read-only.
func (m *Encoder32) PlanCode(pf *PlanFeat) nn.Vec32 {
	if pf == nil {
		return nil
	}
	if memo := pf.code.Load(); memo != nil && memo.gen == m.gen {
		return memo.vec
	}
	return nil
}

// InferOpVecsMemo is InferOpVecs for the plan pf was precomputed from,
// leaving the code in pf's memo slot (none when pf is nil) for PlanCode
// to find under this mirror. The slot gets a heap copy, assigned as a
// field so that arenaescape sees the line: the returned vector is arena
// memory, recycled at the caller's next Reset. Two allocations per
// plan, the code and its tag, and nothing per operator.
func (m *Encoder32) InferOpVecsMemo(pf *PlanFeat, opsBuf nn.Vec32, n int, a *nn.Arena) nn.Vec32 {
	code := m.InferOpVecs(opsBuf, n, a)
	if pf != nil {
		memo := &planCode{gen: m.gen}
		memo.vec = make(nn.Vec32, len(code))
		copy(memo.vec, code)
		pf.code.Store(memo)
	}
	return code
}

// InferPlan mirrors Encoder.EncodePlan: InferOp over each operator,
// InferOpVecs over the results.
func (m *Encoder32) InferPlan(p [][]plan.Tok, a *nn.Arena) nn.Vec32 {
	D := m.planDim // an operator vector is as wide as a plan code
	opsBuf := a.Vec32(len(p) * D)
	for i, seq := range p {
		m.InferOp(opsBuf[i*D:(i+1)*D], seq, a)
	}
	return m.InferOpVecs(opsBuf, len(p), a)
}

// InferSchema mirrors Encoder.EncodeSchema: average pooling of keyword
// codes. Under KeywordOneHot the average of one-hots is a scaled
// count vector, computed directly without materializing the one-hots.
func (m *Encoder32) InferSchema(keywords []string, a *nn.Arena) nn.Vec32 {
	out := a.Vec32(m.schemaDim)
	if len(keywords) == 0 {
		return out
	}
	inv := 1 / float32(len(keywords))
	if m.cfg.KeywordOneHot {
		for _, k := range keywords {
			out[m.vocab.ID(k)] += inv
		}
		return out
	}
	for _, k := range keywords {
		row := m.kwEmb.Row(m.vocab.ID(k))
		for i, v := range row {
			out[i] += v
		}
	}
	for i := range out {
		out[i] *= inv
	}
	return out
}

// PlanDim is the width of one plan's encoding (same as the f64 side).
func (m *Encoder32) PlanDim() int { return m.planDim }
