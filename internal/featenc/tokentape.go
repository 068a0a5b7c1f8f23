package featenc

import (
	"autoview/internal/nn"
	"autoview/internal/plan"
)

// TokenTape encodes the tokens of many operators for training, each as
// EncodeToken does, and keeps what their backward needs: no closure per
// token, the codes in the tape's own buffer (a keyword's embedding row
// is read in place), the string encoder's scratch in an arena, and each
// distinct string run through the string encoder once per tape however
// many tokens carry it. A string's encoding depends on its text and the weights
// alone, and its backward only reads the forward's activations, so a
// shared forward gives every use the values and gradients its own would.
// Gradients land in the encoder the tape was reset with. The zero value
// is ready for Reset.
type TokenTape struct {
	e     *Encoder
	a     *nn.Arena
	buf   nn.Vec   // the codes' buffer
	off   int      // elements the codes took since Reset
	vecs  []nn.Vec // per token, TokenDim wide (read-only)
	back  []int    // per token: its keyword row (≥ 0), -1 for none, or -2-i for string tape i
	first []int    // per operator: its first token; then the token count
	strs  []strTape
	strOf map[string]int
}

// strTape is one string's StringEncoder forward.
type strTape struct {
	str    string
	b1, b2 nn.ConvTape
	vec    nn.Vec // the encoding
}

// Reset empties the tape for operators encoded by e, the string
// encoder's scratch carved from a. The codes' buffer grows to what the
// largest pass since the previous Reset took.
func (t *TokenTape) Reset(e *Encoder, a *nn.Arena) {
	t.e, t.a = e, a
	if t.off > len(t.buf) {
		t.buf = make(nn.Vec, t.off+t.off/4)
	}
	t.off = 0
	t.vecs, t.back, t.strs = t.vecs[:0], t.back[:0], t.strs[:0]
	t.first = append(t.first[:0], 0)
	if t.strOf == nil {
		t.strOf = make(map[string]int)
	}
	clear(t.strOf)
}

// Add encodes the tokens of one more operator.
func (t *TokenTape) Add(seq []plan.Tok) {
	e, a := t.e, t.a
	for _, tok := range seq {
		var v nn.Vec
		back := -1
		switch {
		case !tok.Str && e.KwEmb != nil:
			back = e.Vocab.ID(tok.Text)
			if back < 0 || back >= e.KwEmb.W.Rows {
				back = 0 // Embedding.Forward's clamp
			}
			v = e.KwEmb.W.Row(back)
		case !tok.Str:
			v = t.take(e.Vocab.Size())
			v[e.Vocab.ID(tok.Text)] = 1
		case e.Str != nil:
			i, ok := t.strOf[tok.Text]
			if !ok {
				i = len(t.strs)
				t.strOf[tok.Text] = i
				t.strs = append(t.strs, strTape{str: tok.Text})
				t.strs[i].encode(e.Str, t.take(e.Str.Dim()), a)
			}
			v, back = t.strs[i].vec, -2-i
		default: // encodeString's one-hot average
			v = t.take(charSpace)
			if len(tok.Text) > 0 {
				inv := 1 / float64(len(tok.Text))
				for i := 0; i < len(tok.Text); i++ {
					v[charID(tok.Text[i])] += inv
				}
			}
		}
		if len(v) < e.tokDim {
			padded := t.take(e.tokDim)
			copy(padded, v)
			v = padded
		}
		t.vecs = append(t.vecs, v)
		t.back = append(t.back, back)
	}
	t.first = append(t.first, len(t.vecs))
}

// take carves n zeroed elements from the buffer, or from the heap once
// it is full (Reset then grows it).
func (t *TokenTape) take(n int) nn.Vec {
	t.off += n
	if t.off > len(t.buf) {
		return make(nn.Vec, n)
	}
	v := t.buf[t.off-n : t.off : t.off]
	clear(v)
	return v
}

// Tokens returns operator k's token codes, in Add order, read-only.
func (t *TokenTape) Tokens(k int) []nn.Vec { return t.vecs[t.first[k]:t.first[k+1]] }

// Backward takes dy, the gradient of token j of operator k, and adds
// its gradients to the encoder's parameters, as that token's
// EncodeToken backward would.
func (t *TokenTape) Backward(k, j int, dy nn.Vec) {
	switch b := t.back[t.first[k]+j]; {
	case b >= 0:
		row := t.e.KwEmb.W.GradRow(b)
		for i, v := range dy[:len(row)] {
			row[i] += v
		}
	case b <= -2:
		t.strs[-2-b].backward(t.e.Str, dy[:t.e.Str.Dim()], t.a)
	}
}

// encode runs the string encoder's forward on the tape's string into
// vec, zeroed: the two blocks, then their output averaged over the
// characters (AvgPoolCols); an empty string encodes as zeros.
func (st *strTape) encode(s *StringEncoder, vec nn.Vec, a *nn.Arena) {
	T, D := len(st.str), s.Dim()
	st.vec = vec
	if T == 0 {
		return
	}
	rows := a.Vec(T * D)
	for i := 0; i < T; i++ {
		copy(rows[i*D:], s.CharEmb.W.Row(charID(st.str[i])))
	}
	m1 := s.Block1.ForwardTape(&st.b1, rows, T, D, a)
	m2 := s.Block2.ForwardTape(&st.b2, m1, T, D, a)
	for r := 0; r < T; r++ {
		for d, v := range m2[r*D:][:D] {
			st.vec[d] += v
		}
	}
	inv := 1 / float64(T)
	for d := range st.vec {
		st.vec[d] *= inv
	}
}

// backward is StringEncoder.Encode's backward for one use with dy.
func (st *strTape) backward(s *StringEncoder, dy nn.Vec, a *nn.Arena) {
	T, D := len(st.str), s.Dim()
	if T == 0 {
		return
	}
	inv := 1 / float64(T)
	dm2 := a.Vec(T * D)
	for r := 0; r < T; r++ {
		for d, v := range dy {
			dm2[r*D+d] = v * inv
		}
	}
	drows := s.Block1.BackwardTape(&st.b1, s.Block2.BackwardTape(&st.b2, dm2, a), a)
	for i := 0; i < T; i++ {
		row := s.CharEmb.W.GradRow(charID(st.str[i]))
		for d, v := range drows[i*D:][:D] {
			row[d] += v
		}
	}
}
