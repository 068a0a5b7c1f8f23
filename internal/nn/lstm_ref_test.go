package nn

import (
	"math"
	"math/rand"
	"testing"
)

// refLSTMStep is the per-timestep cell LSTM.Forward was built from until
// it kept a whole sequence in one slab: every vector its own allocation,
// dW and d[x,h] in one loop per gate row. It stays as the reference the
// fused sequence code is held to, bit for bit.
func refLSTMStep(c *LSTMCell, x, h, cPrev Vec) (hNext, cNext Vec, back func(dh, dc Vec) (dx, dhPrev, dcPrev Vec)) {
	H := c.Hidden
	xh := Concat(x, h)
	pre := zeros(4 * H)
	gates := Linear{W: c.W, B: c.B}
	gates.InferInto(pre, xh)
	i, f, g, o := zeros(H), zeros(H), zeros(H), zeros(H)
	for j := 0; j < H; j++ {
		i[j] = sigmoid(pre[j])
		f[j] = sigmoid(pre[H+j])
		g[j] = math.Tanh(pre[2*H+j])
		o[j] = sigmoid(pre[3*H+j])
	}
	cNext, hNext = zeros(H), zeros(H)
	tanhC := zeros(H)
	for j := 0; j < H; j++ {
		cNext[j] = f[j]*cPrev[j] + i[j]*g[j]
		tanhC[j] = math.Tanh(cNext[j])
		hNext[j] = o[j] * tanhC[j]
	}
	back = func(dh, dc Vec) (Vec, Vec, Vec) {
		dPre := zeros(4 * H)
		dcTotal := zeros(H)
		for j := 0; j < H; j++ {
			dcj := dc[j] + dh[j]*o[j]*(1-tanhC[j]*tanhC[j])
			dcTotal[j] = dcj
			do := dh[j] * tanhC[j]
			di := dcj * g[j]
			df := dcj * cPrev[j]
			dg := dcj * i[j]
			dPre[j] = di * i[j] * (1 - i[j])
			dPre[H+j] = df * f[j] * (1 - f[j])
			dPre[2*H+j] = dg * (1 - g[j]*g[j])
			dPre[3*H+j] = do * o[j] * (1 - o[j])
		}
		dxh := zeros(len(xh))
		for r := 0; r < 4*H; r++ {
			gr := dPre[r]
			if gr == 0 {
				continue
			}
			row := c.W.Row(r)
			grow := c.W.GradRow(r)
			for k, v := range xh {
				grow[k] += gr * v
				dxh[k] += gr * row[k]
			}
			c.B.Grad[r] += gr
		}
		dcPrev := zeros(H)
		for j := 0; j < H; j++ {
			dcPrev[j] = dcTotal[j] * f[j]
		}
		return dxh[:c.In], dxh[c.In:], dcPrev
	}
	return hNext, cNext, back
}

// refLSTMForward runs refLSTMStep over a sequence from the zero state.
func refLSTMForward(c *LSTMCell, xs []Vec) (Vec, func(dh Vec) []Vec) {
	h, cs := zeros(c.Hidden), zeros(c.Hidden)
	backs := make([]func(dh, dc Vec) (Vec, Vec, Vec), len(xs))
	for t, x := range xs {
		h, cs, backs[t] = refLSTMStep(c, x, h, cs)
	}
	return h, func(dh Vec) []Vec {
		dxs := make([]Vec, len(xs))
		dc := zeros(c.Hidden)
		for t := len(xs) - 1; t >= 0; t-- {
			dxs[t], dh, dc = backs[t](dh, dc)
		}
		return dxs
	}
}

// TestLSTMFusedMatchesPerStepReference: the slab-backed sequence pass
// must reproduce the per-step reference exactly — final hidden state,
// per-step input gradients and both parameter gradients — for every
// shape and length, including the empty sequence and an exactly-zero
// upstream gradient (the sparsity fast path).
func TestLSTMFusedMatchesPerStepReference(t *testing.T) {
	for trial := 0; trial < 80; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		in, H := 1+rng.Intn(9), 1+rng.Intn(7)
		l := NewLSTM("t.lstm", in, H, rng)
		ref := l.Cell.ShareWeights()
		xs := randMat(rng, rng.Intn(8), in)
		dh := randVec(rng, H)
		if trial%8 == 0 {
			dh[rng.Intn(H)] = 0
		}

		wantH, wantBack := refLSTMForward(ref, xs)
		gotH, gotBack := l.Forward(xs)
		assertBitEqual(t, "LSTM.Forward h", wantH, gotH)
		// Twice: a second backward accumulates onto the first.
		for pass := 0; pass < 2; pass++ {
			wantDxs, gotDxs := wantBack(dh), gotBack(dh)
			if len(gotDxs) != len(wantDxs) {
				t.Fatalf("trial %d: %d input gradients, want %d", trial, len(gotDxs), len(wantDxs))
			}
			for s := range wantDxs {
				assertBitEqual(t, "LSTM dx", wantDxs[s], gotDxs[s])
			}
			assertBitEqual(t, "LSTM dW", ref.W.Grad, l.Cell.W.Grad)
			assertBitEqual(t, "LSTM dB", ref.B.Grad, l.Cell.B.Grad)
		}
	}
}

// TestLSTMForwardBackwardAllocsLengthIndependent pins what the slabs
// buy: one forward plus one backward costs the same few allocations for
// a 1-step and a 64-step sequence, so a per-timestep tape cannot come
// back unnoticed.
func TestLSTMForwardBackwardAllocsLengthIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l := NewLSTM("t.lstm", 16, 16, rng)
	dh := randVec(rng, 16)
	var want float64
	for _, steps := range []int{1, 8, 64} {
		xs := randMat(rng, steps, 16)
		got := testing.AllocsPerRun(20, func() {
			_, back := l.Forward(xs)
			back(dh)
		})
		if steps == 1 {
			want = got
		}
		if got != want || got > 5 {
			t.Errorf("%d steps: %v allocations per forward+backward, want the 1-step count %v (at most 5)", steps, got, want)
		}
	}
}
