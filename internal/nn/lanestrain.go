package nn

import (
	"math"
	"slices"
)

// Batched training passes. A mini-batch's samples and sequences run
// through the lane kernels (lanes64.go) together instead of one tape per
// sample: DenseLanes is one Linear layer (optionally followed by ReLU)
// over samples as lanes, feature-major, on denseLanes; LSTMLanes is one
// LSTM over many sequences, sample-major, its products on mulAddLanes.
// Each element of a forward runs exactly the chain Forward runs for its
// sample — InferInto's: the bias, then one term per input column in
// order — and the activations are the same scalar expressions; a
// backward gives each sample's input gradient by mulAddLanes, whose
// element chain is the one Linear's and LSTM's backward build: from +0,
// one term per output row in row order. (Linear's backward skips a row whose gradient is zero; its
// terms g·w are then ±0 for a finite w, and a chain that starts at +0
// is never -0, so adding them changes nothing.)
//
// Parameter gradients are not accumulated by the lanes: a pass keeps
// each lane's terms and an ordered reduction adds them onto the
// canonical gradients afterwards, in parallel over parameter rows —
// each row owned by one job — and, within a row, in lane order. That is
// the fold a per-sample trainer runs (each sample's gradient formed
// from +0 in a zeroed replica, then added in sample order), so the
// result is bit-identical to it at any parallelism:
//
//   - a dense layer's weight and bias take one term per sample, and
//     (+0 + t) added to a sum that started at +0 equals t added to it
//     (they differ only for t = -0, which leaves such a sum unchanged),
//     so AddDenseGrads adds the terms straight onto the gradient;
//   - an LSTM's weights take many terms per sample, one per step, so
//     each group of sequences a sample owns (an operator, or a pair's
//     two plans) is a segment whose sum is formed from +0 before it is
//     added (LSTMLanes.FoldGrads).

// Transpose writes the [cols × rows] transpose of the row-major [rows ×
// cols] src into dst.
func Transpose(dst, src Vec, rows, cols int) {
	for r := 0; r < rows; r++ {
		for c, v := range src[r*cols:][:cols] {
			dst[c*rows+r] = v
		}
	}
}

// DenseLanes is one Linear layer, with or without a ReLU after it, over
// the n samples of a block of lanes, keeping what its backward and its
// gradient reduction read. The zero value is ready for Forward.
type DenseLanes struct {
	l        *Linear
	relu     bool
	n, lanes int
	x, y     Vec // [in × lanes] input, [out × lanes] output (after ReLU)
	g        Vec // [out × n]: dL/d(pre-activation) of the real lanes
	xs       Vec // [n × in]: the real lanes' inputs, sample-major
}

// Forward applies l (and ReLU when relu) to the n inputs of x, which is
// [in × PadLanes(n)], and returns the [out × PadLanes(n)] outputs,
// carved from a. Lanes past n are padding: their outputs are finite for
// a finite x and are never read.
func (d *DenseLanes) Forward(l *Linear, x Vec, n int, relu bool, a *Arena) Vec {
	lanes := PadLanes(n)
	d.l, d.relu, d.n, d.lanes, d.x = l, relu, n, lanes, x
	d.y = a.raw(l.OutDim() * lanes)
	denseLanes(d.y, x, l.W.Val, l.B.Val, nil, nil, l.InDim(), lanes, relu)
	return d.y
}

// Backward takes dy, [out × lanes], the gradient of the outputs Forward
// returned, keeps the terms of the layer's gradient, and returns the
// inputs' gradient [in × lanes] (nil when wt is nil). wt is the layer's
// weight transposed, [in × out].
func (d *DenseLanes) Backward(dy, wt Vec, a *Arena) Vec {
	out, in, n, lanes := d.l.OutDim(), d.l.InDim(), d.n, d.lanes
	var gp Vec
	if wt != nil {
		gp = a.Vec(out * lanes)
	}
	d.g = a.raw(out * n)
	for r := 0; r < out; r++ {
		dr, yr, g := dy[r*lanes:][:n], d.y[r*lanes:][:n], d.g[r*n:][:n]
		for p, v := range dr {
			if d.relu && !(yr[p] > 0) {
				v = 0
			}
			g[p] = v
		}
		if gp != nil {
			copy(gp[r*lanes:], g)
		}
	}
	d.xs = a.raw(n * in)
	for c := 0; c < in; c++ {
		for p, v := range d.x[c*lanes:][:n] {
			d.xs[p*in+c] = v
		}
	}
	if wt == nil {
		return nil
	}
	dx := a.Vec(in * lanes)
	mulAddLanes(dx, gp, wt, out, lanes)
	return dx
}

// AddDenseGrads adds the weight and bias gradient terms of every lane of
// blocks — block by block, each in lane order — onto rows [r0, r1) of
// l's gradients. Blocks whose layer is not l must be empty (n = 0).
func AddDenseGrads(l *Linear, blocks []*DenseLanes, r0, r1 int) {
	in := l.InDim()
	for _, d := range blocks {
		n := d.n
		if n == 0 {
			continue
		}
		mulAddLanes(l.W.Grad[r0*in:r1*in], d.xs, d.g[r0*n:r1*n], n, in)
		for r := r0; r < r1; r++ {
			s := l.B.Grad[r]
			for _, v := range d.g[r*n:][:n] {
				s += v
			}
			l.B.Grad[r] = s
		}
	}
}

// segments are the partial products an ordered reduction adds onto a
// [rows × ld] gradient: product column c holds the terms w[c·rows+r]·x[c,j]
// of element (r, j), x being [C × ld] and w [C × rows], and segment k
// is the columns off[k] to off[k+1].
type segments struct {
	x, w     Vec
	off      []int
	rows, ld int
}

// foldRows adds onto rows [r0, r1) of y, [rows × ld], every segment's
// product, and onto b[r0:r1] every segment's sums of its w terms, in
// segment order. Each segment's sum is formed from +0, its terms in
// column order, before it is added: the fold of one zeroed replica per
// segment.
func (s *segments) foldRows(y, b Vec, r0, r1 int) {
	ld, rows := s.ld, s.rows
	for k := 0; k+1 < len(s.off); k++ {
		lo, c := s.off[k], s.off[k+1]-s.off[k]
		if c == 0 {
			continue
		}
		w := s.w[lo*rows:][:c*rows]
		mulAddSegment(y[r0*ld:r1*ld], s.x[lo*ld:][:c*ld], w[r0:], r1-r0, c, ld, 1, rows)
		for r := r0; r < r1; r++ {
			var sum float64
			for col := 0; col < c; col++ {
				sum += w[col*rows+r]
			}
			b[r] += sum
		}
	}
}

// LSTMLanes is one batched pass of an LSTM over many sequences, kept
// for its backward and gradient reduction. Its activations are
// sample-major, a row per sequence, and each step's products are one
// mulAddLanes over the sequences still running, whose lanes are the
// gate rows (forward) or the [x, h] columns (backward): a lane of it is
// an element of one sequence's product, with InferInto's chain forward
// (the bias, then one term per input column in order) and the LSTM
// backward's chain back (from +0, one term per gate row in order).
// Sequences are kept sorted longest first, so the ones still running
// at a step are a prefix. The zero value is ready for Forward, and a
// tape is reused by calling Forward again: it keeps its two buffers
// (the forward's and the backward's), which grow to the largest pass
// they have held, so a tape reused over passes of similar shape soon
// allocates nothing.
type LSTMLanes struct {
	c      *LSTMCell
	fwd    slab
	bwd    slab
	n      int
	lens   []int // per sequence
	seq    []int // row → sequence
	row    []int // sequence → row
	active []int // per step t: the rows whose sequence is longer than t; then 0
	xh     []Vec // per step: [x, h_prev] per row, [active[t] × (In+Hidden)]
	gates  []Vec // per step: the activated gates i, f, g, o, [active[t] × 4·Hidden]
	cs     []Vec // per step: the cell state, [active[t] × Hidden]
	tanhCs []Vec // per step: tanh of the cell state
	dPre   []Vec // per step: the gates' pre-activation gradient, [active[t] × 4·Hidden]
	out    Vec   // [n × Hidden]: every sequence's final hidden state
	dx     Vec   // per sequence, per step: the input's gradient, In wide
	dxOff  []int // per sequence: its first step's row in dx
	segs   segments
}

// PadLanes rounds n up to a whole number of the lane kernel's blocks.
func PadLanes(n int) int { return padLanes(n) }

// Forward runs the cell over every sequence of xs (xs[s][t] is step t's
// input of sequence s, In wide) from a zero state, as LSTM.Forward does
// for each. wt is the cell's weight transposed, [In+Hidden × 4·Hidden].
func (t *LSTMLanes) Forward(c *LSTMCell, wt Vec, xs [][]Vec) {
	H, in := c.Hidden, c.In
	xhLen, G := in+H, 4*H
	n := len(xs)
	t.c, t.n = c, n
	t.lens, t.seq, t.row = t.lens[:0], t.seq[:0], slices.Grow(t.row[:0], n)[:n]
	maxT, total := 0, 0
	for s, x := range xs {
		t.lens = append(t.lens, len(x))
		t.seq = append(t.seq, s)
		maxT, total = max(maxT, len(x)), total+len(x)
	}
	slices.SortStableFunc(t.seq, func(p, q int) int { return t.lens[q] - t.lens[p] })
	for p, s := range t.seq {
		t.row[s] = p
	}
	t.active = t.active[:0]
	for step, na := 0, n; step <= maxT; step++ {
		for na > 0 && t.lens[t.seq[na-1]] <= step {
			na--
		}
		t.active = append(t.active, na)
	}
	t.xh, t.gates, t.cs, t.tanhCs = t.xh[:0], t.gates[:0], t.cs[:0], t.tanhCs[:0]
	a := t.fwd.reset(n*H + total*(xhLen+G+3*H))
	t.out = a.zeroed(n * H)
	var hPrev, cPrev Vec
	for step := 0; step < maxT; step++ {
		na := t.active[step]
		xh, g4 := a.take(na*xhLen), a.take(na*G)
		for p, s := range t.seq[:na] {
			row := xh[p*xhLen:][:xhLen]
			copy(row, xs[s][step][:in])
			if step > 0 {
				copy(row[in:], hPrev[p*H:][:H])
			} else {
				clear(row[in:])
			}
			copy(g4[p*G:][:G], c.B.Val)
		}
		mulAddLanes(g4, wt, xh, xhLen, G)
		cs, tanhC, h := a.take(na*H), a.take(na*H), a.take(na*H)
		for p := 0; p < na; p++ {
			g := g4[p*G:][:G]
			gi, gf, gg, gov := g[:H], g[H:2*H], g[2*H:3*H], g[3*H:]
			cj, tj, hj := cs[p*H:][:H], tanhC[p*H:][:H], h[p*H:][:H]
			var cp Vec
			if step > 0 {
				cp = cPrev[p*H:][:H]
			}
			for j := range gi {
				gi[j] = sigmoid(gi[j])
				gf[j] = sigmoid(gf[j])
				gg[j] = math.Tanh(gg[j])
				gov[j] = sigmoid(gov[j])
				var prev float64 // c_0 = +0
				if cp != nil {
					prev = cp[j]
				}
				cj[j] = gf[j]*prev + gi[j]*gg[j]
				tj[j] = math.Tanh(cj[j])
				hj[j] = gov[j] * tj[j]
			}
		}
		t.xh = append(t.xh, xh)
		t.gates = append(t.gates, g4)
		t.cs = append(t.cs, cs)
		t.tanhCs = append(t.tanhCs, tanhC)
		// The sequences that end here hand out their final state.
		for p := t.active[step+1]; p < na; p++ {
			copy(t.out[t.seq[p]*H:][:H], h[p*H:][:H])
		}
		hPrev, cPrev = h, cs
	}
}

// Out returns sequence s's final hidden state (zeros for an empty
// sequence), read-only.
func (t *LSTMLanes) Out(s int) Vec {
	H := t.c.Hidden
	return t.out[s*H:][:H]
}

// Backward takes dh, [n × Hidden]: the gradient of every sequence's
// final hidden state (an empty sequence's row is ignored), and computes
// every step's input gradient (InputGrad) and the weight gradient's
// terms, in segments of per consecutive sequences each: the sequences
// of one sample, whose terms a per-sample backward accumulates into
// one zeroed replica (FoldGrads).
func (t *LSTMLanes) Backward(dh Vec, per int) {
	c := t.c
	H, in := c.Hidden, c.In
	xhLen, G := in+H, 4*H
	maxT := len(t.gates)
	t.dxOff = t.dxOff[:0]
	total := 0
	for _, T := range t.lens {
		t.dxOff = append(t.dxOff, total)
		total += T
	}
	t.dPre = slices.Grow(t.dPre[:0], maxT)[:maxT]
	n0 := t.active[0]
	a := t.bwd.reset(total*(in+2*(xhLen+G)) + 2*H*n0)
	t.dx = a.take(total * in)
	dhW, dcW := a.take(H*n0), a.take(H*n0) // per row: dh and dc of the step in flight
	for step := maxT - 1; step >= 0; step-- {
		na := t.active[step]
		for p := t.active[step+1]; p < na; p++ {
			copy(dhW[p*H:][:H], dh[t.seq[p]*H:][:H])
			clear(dcW[p*H:][:H])
		}
		g4, tanhC := t.gates[step], t.tanhCs[step]
		dPre := a.take(na * G)
		for p := 0; p < na; p++ {
			g, d := g4[p*G:][:G], dPre[p*G:][:G]
			gi, gf, gg, gov := g[:H], g[H:2*H], g[2*H:3*H], g[3*H:]
			di, df, dg, do := d[:H], d[H:2*H], d[2*H:3*H], d[3*H:]
			tc, dhj, dcj := tanhC[p*H:][:H], dhW[p*H:][:H], dcW[p*H:][:H]
			var cp Vec
			if step > 0 {
				cp = t.cs[step-1][p*H:][:H]
			}
			for j := range tc {
				i, f, g, o := gi[j], gf[j], gg[j], gov[j]
				var cPrev float64
				if cp != nil {
					cPrev = cp[j]
				}
				dc := dcj[j] + dhj[j]*o*(1-tc[j]*tc[j])
				dO := dhj[j] * tc[j]
				dI := dc * g
				dF := dc * cPrev
				dG := dc * i
				di[j] = dI * i * (1 - i)
				df[j] = dF * f * (1 - f)
				dg[j] = dG * (1 - g*g)
				do[j] = dO * o * (1 - o)
				dcj[j] = dc * f
			}
		}
		// d[x,h_prev] = Wᵀ·dPre per row, each element's terms in
		// gate-row order from +0.
		dxh := a.zeroed(na * xhLen)
		mulAddLanes(dxh, c.W.Val, dPre, G, xhLen)
		for p, s := range t.seq[:na] {
			copy(t.dx[(t.dxOff[s]+step)*in:][:in], dxh[p*xhLen:][:in])
			copy(dhW[p*H:][:H], dxh[p*xhLen+in:][:H])
		}
		t.dPre[step] = dPre
	}
	t.gather(per, a.take(total*xhLen), a.take(G*total))
}

// gather lays the weight gradient's terms out as segments: segment k
// holds sequences k·per to (k+1)·per-1 in order, each sequence's steps
// latest first — the order LSTM.Forward's backward adds them in.
func (t *LSTMLanes) gather(per int, x, w Vec) {
	H, in := t.c.Hidden, t.c.In
	xhLen, G := in+H, 4*H
	sg := &t.segs
	sg.rows, sg.ld, sg.x, sg.w = G, xhLen, x, w
	sg.off = append(sg.off[:0], 0)
	total := 0
	for s0 := 0; s0 < t.n; s0 += per {
		for _, T := range t.lens[s0:min(s0+per, t.n)] {
			total += T
		}
		sg.off = append(sg.off, total)
	}
	col := 0 // column of sequence s's latest step within its segment
	for s, T := range t.lens {
		k := s / per
		if s%per == 0 {
			col = 0
		}
		lo, p := sg.off[k], t.row[s]
		for step := 0; step < T; step++ {
			j := lo + col + T - 1 - step
			copy(sg.x[j*xhLen:][:xhLen], t.xh[step][p*xhLen:][:xhLen])
			copy(sg.w[j*G:][:G], t.dPre[step][p*G:][:G])
		}
		col += T
	}
}

// InputGrad returns the gradient of sequence s's step-th input after
// Backward, read-only.
func (t *LSTMLanes) InputGrad(s, step int) Vec {
	in := t.c.In
	return t.dx[(t.dxOff[s]+step)*in:][:in]
}

// FoldGrads adds the weight gradient's terms Backward kept onto rows
// [r0, r1) of the cell's W.Grad and B.Grad, sample by sample: each
// sample's terms summed from +0 in the order LSTM.Forward's backward
// accumulates them into a zeroed replica, then added. Folded tape after
// tape in sample order, rows split among jobs as they like, the result
// is what one zeroed replica per sample folded in sample order gives.
func (t *LSTMLanes) FoldGrads(r0, r1 int) {
	t.segs.foldRows(t.c.W.Grad, t.c.B.Grad, r0, r1)
}

// slab is a bump allocator over one buffer that grows to the largest
// pass it has served: reset sizes it for a pass, take and zeroed carve
// from it.
type slab struct {
	buf Vec
	off int
}

// reset rewinds the slab for a pass of size elements, growing the
// buffer (with a quarter to spare) when it is smaller; slices carved
// before keep the old buffer.
func (s *slab) reset(size int) *slab {
	if len(s.buf) < size {
		s.buf = make(Vec, size+size/4)
	}
	s.off = 0
	return s
}

// take carves n elements holding whatever the buffer last held.
func (s *slab) take(n int) Vec {
	v := s.buf[s.off : s.off+n : s.off+n]
	s.off += n
	return v
}

// zeroed carves n zeroed elements.
func (s *slab) zeroed(n int) Vec {
	v := s.take(n)
	clear(v)
	return v
}
