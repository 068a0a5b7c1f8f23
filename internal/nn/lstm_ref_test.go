package nn

import (
	"fmt"
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
	xh := Concat(nil, x, h)
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
// shape and length, including the empty sequence, an exactly-zero
// upstream gradient (the rows the reference skips), [x,h] widths of
// whole lane blocks (the W-D encoders' 16+16), a scalar tail, or both,
// and tapes on the heap and on an arena.
func TestLSTMFusedMatchesPerStepReference(t *testing.T) {
	shapes := [][2]int{{16, 16}, {4, 4}, {13, 3}}
	for trial := 0; trial < 80+len(shapes); trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		in, H := 1+rng.Intn(9), 1+rng.Intn(7)
		if trial >= 80 {
			in, H = shapes[trial-80][0], shapes[trial-80][1]
		}
		var a *Arena
		if trial%2 == 1 {
			a = NewArena()
		}
		l := NewLSTM("t.lstm", in, H, rng)
		ref := l.Cell.ShareWeights()
		xs := randMat(rng, rng.Intn(8), in)
		dh := randVec(rng, H)
		if trial%8 == 0 {
			dh[rng.Intn(H)] = 0
		}

		wantH, wantBack := refLSTMForward(ref, xs)
		gotH, gotBack := l.Forward(xs, a)
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

// TestMulAddLanesParity: both lane kernels, and mulAddLanes with its
// scalar columns past the last whole block, build every element's chain
// as the scalar loop does, zeros' signs included, onto y's own starting
// values — the LSTM backward's two products at the W-D shapes, widths
// that are a tail alone or blocks and a tail, and 4, 7 and 9 rows: a
// four-row pass alone, and with a remainder of three rows or of one.
func TestMulAddLanesParity(t *testing.T) {
	kernels := []struct {
		name string
		fn   func(y, x, w Vec, cols, ld, lanes int)
	}{{"accLanes", accLanes}, {"accLanesGo", accLanesGo}}
	for i, shape := range [][3]int{{1, 64, 32}, {64, 5, 32}, {64, 1, 8}, {3, 7, 13}, {2, 3, 5}, {5, 9, 24},
		{4, 3, 16}, {7, 6, 21}, {9, 11, 40}} {
		rows, cols, ld := shape[0], shape[1], shape[2]
		rng := rand.New(rand.NewSource(int64(7500 + i)))
		fill := func(n int) Vec {
			v := randVec(rng, n)
			for k := range v {
				if rng.Intn(5) == 0 {
					v[k] = specialValue(rng)
				}
			}
			return v
		}
		y0, x, w := fill(rows*ld), fill(cols*ld), fill(rows*cols)
		want := append(Vec(nil), y0...)
		for r := 0; r < rows; r++ {
			for j := 0; j < ld; j++ {
				for c := 0; c < cols; c++ {
					want[r*ld+j] += w[r*cols+c] * x[c*ld+j]
				}
			}
		}
		got := append(Vec(nil), y0...)
		mulAddLanes(got, x, w, cols, ld)
		assertSameBits(t, fmt.Sprintf("mulAddLanes %v", shape), want, got)
		n8 := ld &^ (laneWidth - 1)
		for _, k := range kernels {
			got := append(Vec(nil), y0...)
			k.fn(got, x, w, cols, ld, n8)
			for r := 0; r < rows; r++ {
				for j := 0; j < ld; j++ {
					e, want := r*ld+j, want[r*ld+j]
					if j >= n8 {
						want = y0[e] // past the blocks: untouched
					}
					if math.Float64bits(got[e]) != math.Float64bits(want) {
						t.Fatalf("%s %v: y[%d,%d] = %v, want %v", k.name, shape, r, j, got[e], want)
					}
				}
			}
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
			_, back := l.Forward(xs, nil)
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
