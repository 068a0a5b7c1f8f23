package featenc

import (
	"math/rand"

	"autoview/internal/nn"
	"autoview/internal/plan"
)

// Config selects the encoder architecture. The zero value with defaults
// applied is the paper's full W-D configuration; the three switches
// produce its ablation variants from Section VI-A:
//
//   - KeywordOneHot (N-Kw): one-hot vectors replace keyword embeddings.
//   - StringOneHot (N-Str): one-hot char vectors replace char embeddings
//     and the CNN is removed (strings encode as averaged char one-hots).
//   - NoSequence (N-Exp): the LSTM1/LSTM2 sequence models are replaced by
//     average pooling of keyword embeddings and string encodings.
type Config struct {
	EmbedDim      int // nd, default 16
	Hidden        int // LSTM hidden width, default 16
	KeywordOneHot bool
	StringOneHot  bool
	NoSequence    bool
}

// withDefaults fills unset dimensions.
func (c Config) withDefaults() Config {
	if c.EmbedDim <= 0 {
		c.EmbedDim = 16
	}
	if c.Hidden <= 0 {
		c.Hidden = 16
	}
	return c
}

// charSpace is the one-hot width of the char embedding input (the paper
// uses 128-dimensional one-hot codes per char).
const charSpace = 128

// StringEncoder implements the paper's String Encoding model: char
// embedding → stacked matrix → two convolution blocks → column-wise
// average pooling (Figure 6).
type StringEncoder struct {
	CharEmb *nn.Embedding
	Block1  *nn.ConvBlock
	Block2  *nn.ConvBlock
}

// NewStringEncoder allocates the model with embedding width dim.
func NewStringEncoder(dim int, rng *rand.Rand) *StringEncoder {
	return &StringEncoder{
		CharEmb: nn.NewEmbedding("str.char", charSpace, dim, rng),
		Block1:  nn.NewConvBlock("str.conv1", rng),
		Block2:  nn.NewConvBlock("str.conv2", rng),
	}
}

// Params implements nn.Module.
func (s *StringEncoder) Params() []*nn.Param {
	return nn.CollectParams(s.CharEmb, s.Block1, s.Block2)
}

// ShareWeights returns a replica sharing weight storage with private
// gradient buffers, for data-parallel training (see nn.Trainer).
func (s *StringEncoder) ShareWeights() *StringEncoder {
	return &StringEncoder{
		CharEmb: s.CharEmb.ShareWeights(),
		Block1:  s.Block1.ShareWeights(),
		Block2:  s.Block2.ShareWeights(),
	}
}

// Dim returns the output width.
func (s *StringEncoder) Dim() int { return s.CharEmb.Dim() }

// Encode maps a string to a fixed-length vector.
func (s *StringEncoder) Encode(str string) (nn.Vec, nn.Backward) {
	if len(str) == 0 {
		return make(nn.Vec, s.Dim()), func(nn.Vec) nn.Vec { return nil }
	}
	rows := make([]nn.Vec, len(str))
	embBacks := make([]nn.Backward, len(str))
	for i := 0; i < len(str); i++ {
		id := int(str[i])
		if id >= charSpace {
			id = 0
		}
		rows[i], embBacks[i] = s.CharEmb.Forward(id)
	}
	m1, b1 := s.Block1.Forward(rows)
	m2, b2 := s.Block2.Forward(m1)
	out, bp := nn.AvgPoolCols(m2)
	back := func(dy nn.Vec) nn.Vec {
		dm2 := bp([]nn.Vec{dy})
		dm1 := b2(dm2)
		drows := b1(dm1)
		for i, db := range embBacks {
			db(drows[i])
		}
		return nil
	}
	return out, back
}

// Encoder bundles the non-numerical feature encoders: the schema encoding
// model Mm and the plan sequence encoding model Me, sharing one keyword
// space.
type Encoder struct {
	Vocab *Vocab
	Cfg   Config

	KwEmb  *nn.Embedding  // nil when KeywordOneHot
	Str    *StringEncoder // nil when StringOneHot
	LSTM1  *nn.LSTM       // nil when NoSequence
	LSTM2  *nn.LSTM       // nil when NoSequence
	tokDim int
}

// NewEncoder builds the encoder stack for a vocabulary.
func NewEncoder(vocab *Vocab, cfg Config, rng *rand.Rand) *Encoder {
	cfg = cfg.withDefaults()
	e := &Encoder{Vocab: vocab, Cfg: cfg}
	kwDim := cfg.EmbedDim
	if cfg.KeywordOneHot {
		kwDim = vocab.Size()
	} else {
		e.KwEmb = nn.NewEmbedding("kw", vocab.Size(), cfg.EmbedDim, rng)
	}
	strDim := cfg.EmbedDim
	if cfg.StringOneHot {
		strDim = charSpace
	} else {
		e.Str = NewStringEncoder(cfg.EmbedDim, rng)
	}
	e.tokDim = kwDim
	if strDim > e.tokDim {
		e.tokDim = strDim
	}
	if !cfg.NoSequence {
		e.LSTM1 = nn.NewLSTM("plan.lstm1", e.tokDim, cfg.Hidden, rng)
		e.LSTM2 = nn.NewLSTM("plan.lstm2", cfg.Hidden, cfg.Hidden, rng)
	}
	return e
}

// Params implements nn.Module.
func (e *Encoder) Params() []*nn.Param {
	out := e.OpParams()
	if e.LSTM2 != nil {
		out = append(out, e.LSTM2.Params()...)
	}
	return out
}

// OpParams returns the parameters EncodeOp reads — keyword embedding,
// string encoder, LSTM1 — in Params order (they are its prefix).
func (e *Encoder) OpParams() []*nn.Param {
	var out []*nn.Param
	if e.KwEmb != nil {
		out = append(out, e.KwEmb.Params()...)
	}
	if e.Str != nil {
		out = append(out, e.Str.Params()...)
	}
	if e.LSTM1 != nil {
		out = append(out, e.LSTM1.Params()...)
	}
	return out
}

// ShareWeights returns a replica sharing weight storage with private
// gradient buffers, in the same parameter order as the original. The
// vocabulary and configuration are shared (both immutable after
// construction), so replicas encode identically to the original while
// accumulating gradients independently.
func (e *Encoder) ShareWeights() *Encoder {
	cp := *e
	if e.KwEmb != nil {
		cp.KwEmb = e.KwEmb.ShareWeights()
	}
	if e.Str != nil {
		cp.Str = e.Str.ShareWeights()
	}
	if e.LSTM1 != nil {
		cp.LSTM1 = e.LSTM1.ShareWeights()
	}
	if e.LSTM2 != nil {
		cp.LSTM2 = e.LSTM2.ShareWeights()
	}
	return &cp
}

// PlanDim is the width of one plan's encoding.
func (e *Encoder) PlanDim() int {
	if e.Cfg.NoSequence {
		return e.tokDim
	}
	return e.Cfg.Hidden
}

// SchemaDim is the width of the schema encoding Dm.
func (e *Encoder) SchemaDim() int {
	if e.Cfg.KeywordOneHot {
		return e.Vocab.Size()
	}
	return e.Cfg.EmbedDim
}

// encodeKeyword produces the (unpadded) keyword code.
func (e *Encoder) encodeKeyword(word string) (nn.Vec, nn.Backward) {
	if e.Cfg.KeywordOneHot {
		v := make(nn.Vec, e.Vocab.Size())
		v[e.Vocab.ID(word)] = 1
		return v, func(nn.Vec) nn.Vec { return nil }
	}
	return e.KwEmb.Forward(e.Vocab.ID(word))
}

// encodeString produces the (unpadded) string code.
func (e *Encoder) encodeString(s string) (nn.Vec, nn.Backward) {
	if e.Cfg.StringOneHot {
		v := make(nn.Vec, charSpace)
		if len(s) > 0 {
			inv := 1 / float64(len(s))
			for i := 0; i < len(s); i++ {
				id := int(s[i])
				if id >= charSpace {
					id = 0
				}
				v[id] += inv
			}
		}
		return v, func(nn.Vec) nn.Vec { return nil }
	}
	return e.Str.Encode(s)
}

// EncodeToken encodes one plan token, padded to TokenDim.
func (e *Encoder) EncodeToken(t plan.Tok) (nn.Vec, nn.Backward) {
	var v nn.Vec
	var back nn.Backward
	if t.Str {
		v, back = e.encodeString(t.Text)
	} else {
		v, back = e.encodeKeyword(t.Text)
	}
	if len(v) == e.tokDim {
		return v, back
	}
	padded := make(nn.Vec, e.tokDim)
	copy(padded, v)
	pback := func(dy nn.Vec) nn.Vec {
		back(dy[:len(v)])
		return nil
	}
	return padded, pback
}

// EncodeOp encodes one operator's token sequence into its operator
// vector: LSTM1 over the token codes (Figure 7(a), first layer), or
// their average under N-Exp. The vector depends on the tokens and the
// weights alone, not on the plan the operator sits in — which is what
// lets training encode each distinct operator of a mini-batch once.
func (e *Encoder) EncodeOp(seq []plan.Tok) (nn.Vec, nn.Backward) {
	tokVecs := make([]nn.Vec, len(seq))
	tokBacks := make([]nn.Backward, len(seq))
	for j, tok := range seq {
		tokVecs[j], tokBacks[j] = e.EncodeToken(tok)
	}
	if e.Cfg.NoSequence {
		v, pb := nn.AvgPool(tokVecs)
		return v, func(dy nn.Vec) nn.Vec {
			shared := pb(dy)
			for _, tb := range tokBacks {
				tb(shared)
			}
			return nil
		}
	}
	v, lb := e.LSTM1.Forward(tokVecs)
	return v, func(dy nn.Vec) nn.Vec {
		dts := lb(dy)
		for j, tb := range tokBacks {
			tb(dts[j])
		}
		return nil
	}
}

// EncodeOpVecs encodes a plan given as its operator vectors into De:
// LSTM2 over them (Figure 7(a), second layer), or their average under
// N-Exp; zeros for a plan with no operators. The backward closure
// returns the gradient of each operator vector, read-only.
func (e *Encoder) EncodeOpVecs(ops []nn.Vec) (nn.Vec, func(dy nn.Vec) []nn.Vec) {
	if len(ops) == 0 {
		return make(nn.Vec, e.PlanDim()), func(nn.Vec) []nn.Vec { return nil }
	}
	if e.Cfg.NoSequence {
		v, pb := nn.AvgPool(ops)
		return v, func(dy nn.Vec) []nn.Vec {
			dops := make([]nn.Vec, len(ops))
			shared := pb(dy)
			for i := range dops {
				dops[i] = shared
			}
			return dops
		}
	}
	return e.LSTM2.Forward(ops)
}

// EncodeOps runs EncodeOp over every operator of a plan; the backward
// closure takes one gradient per operator vector.
func (e *Encoder) EncodeOps(p [][]plan.Tok) ([]nn.Vec, func(dops []nn.Vec)) {
	ops := make([]nn.Vec, len(p))
	backs := make([]nn.Backward, len(p))
	for i, seq := range p {
		ops[i], backs[i] = e.EncodeOp(seq)
	}
	return ops, func(dops []nn.Vec) {
		for i, b := range backs {
			b(dops[i])
		}
	}
}

// EncodePlan encodes a two-dimensional plan sequence into De: EncodeOps
// on the operators' tokens, EncodeOpVecs over the results.
func (e *Encoder) EncodePlan(p [][]plan.Tok) (nn.Vec, nn.Backward) {
	ops, opsBack := e.EncodeOps(p)
	v, pb := e.EncodeOpVecs(ops)
	return v, func(dy nn.Vec) nn.Vec {
		opsBack(pb(dy))
		return nil
	}
}

// EncodeSchema encodes the associated tables' keyword set into Dm by
// average pooling keyword codes (Figure 7(b)).
func (e *Encoder) EncodeSchema(keywords []string) (nn.Vec, nn.Backward) {
	if len(keywords) == 0 {
		return make(nn.Vec, e.SchemaDim()), func(nn.Vec) nn.Vec { return nil }
	}
	vecs := make([]nn.Vec, len(keywords))
	backs := make([]nn.Backward, len(keywords))
	for i, k := range keywords {
		vecs[i], backs[i] = e.encodeKeyword(k)
	}
	v, pb := nn.AvgPool(vecs)
	back := func(dy nn.Vec) nn.Vec {
		shared := pb(dy)
		for _, b := range backs {
			b(shared)
		}
		return nil
	}
	return v, back
}
