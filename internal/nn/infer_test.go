package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// The f64 forward-only path (the DQN's scoring and bootstrap) promises
// bit-identity with the training forward: every test here compares with
// ==, not a tolerance, and the batched forward's tests compare bits.

func randVec(rng *rand.Rand, n int) Vec {
	v := make(Vec, n)
	for i := range v {
		v[i] = rng.NormFloat64() * 2
	}
	return v
}

func assertBitEqual(t *testing.T, ctx string, want, got Vec) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d != %d", ctx, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] { // bit-identity is the property under test
			t.Fatalf("%s: element %d: %v != %v (diff %g)", ctx, i, got[i], want[i], got[i]-want[i])
		}
	}
}

func TestLinearInferParity(t *testing.T) {
	for trial := 0; trial < 120; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		in, out := 1+rng.Intn(12), 1+rng.Intn(12)
		l := NewLinear("t.lin", in, out, rng)
		x := randVec(rng, in)
		// The unblocked definition — bias first, then columns left to
		// right, one row at a time — which the row-blocked loop behind
		// Forward must reproduce exactly.
		ref := make(Vec, out)
		for r := range ref {
			ref[r] = l.B.Val[r]
			for c, xv := range x {
				ref[r] += l.W.Row(r)[c] * xv
			}
		}
		want, _ := l.Forward(x)
		assertBitEqual(t, "Linear.Forward vs unblocked reference", ref, want)
		dst := make(Vec, out)
		l.InferInto(dst, x)
		assertBitEqual(t, "Linear.InferInto", want, dst)
	}
}

// TestLSTMCellGatesMatchUnblockedDefinition: the cell's 4H gate
// pre-activations run through the row-blocked matvec Linear uses; the
// sequence's final hidden state must equal, bit for bit, the recurrence
// computed from pre-activations accumulated one row at a time, bias
// first, then columns left to right.
func TestLSTMCellGatesMatchUnblockedDefinition(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(3000 + trial)))
		in, H := 1+rng.Intn(9), 1+rng.Intn(7)
		l := NewLSTM("t.lstm", in, H, rng)
		c := l.Cell
		xs := randMat(rng, 1+rng.Intn(4), in)
		h, cst := make(Vec, H), make(Vec, H)
		for _, x := range xs {
			xh := Concat(x, h)
			pre := make(Vec, 4*H)
			for r := range pre {
				pre[r] = c.B.Val[r]
				for k, v := range xh {
					pre[r] += c.W.Row(r)[k] * v
				}
			}
			for j := 0; j < H; j++ {
				cst[j] = sigmoid(pre[H+j])*cst[j] + sigmoid(pre[j])*math.Tanh(pre[2*H+j])
				h[j] = sigmoid(pre[3*H+j]) * math.Tanh(cst[j])
			}
		}
		got, _ := l.Forward(xs)
		assertBitEqual(t, "LSTM.Forward h", h, got)
	}
}

// lanesKernels are the batched forward's two kernels: the one InferBatch
// runs on this GOARCH and the portable one.
var lanesKernels = []struct {
	name string
	fn   func(y, x, w, b Vec, cols, lanes int, relu bool)
}{{"denseLanes", denseLanes}, {"denseLanesGo", denseLanesGo}}

// assertSameBits is assertBitEqual that also tells -0 from +0.
func assertSameBits(t *testing.T, ctx string, want, got Vec) {
	t.Helper()
	assertBitEqual(t, ctx, want, got)
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: element %d: %v != %v (sign of zero)", ctx, i, got[i], want[i])
		}
	}
}

// TestReLUInferParity: the kernels' fused ReLU returns what the tape's
// ReLU returns, bit for bit, on every pre-activation class: +0 for -0
// and for NaN, infinities, subnormals of both signs. A one-column layer
// with weights 1 and -0 biases passes each input through unchanged
// (-0 + x is x, and -0 for x = -0); its three rows cover the
// assembly's two-row path and its odd last row.
func TestReLUInferParity(t *testing.T) {
	pre := Vec{math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1), 1, -1,
		5e-324, -5e-324, 1e-310, -1e-310, math.MaxFloat64, -math.MaxFloat64}
	lanes := padLanes(len(pre))
	x := make(Vec, lanes)
	copy(x, pre)
	negZero := math.Copysign(0, -1)
	w, b := Vec{1, 1, 1}, Vec{negZero, negZero, negZero}
	want, _ := ReLU(pre)
	for _, k := range lanesKernels {
		y := make(Vec, len(b)*lanes)
		k.fn(y, x, w, b, 1, lanes, true)
		for r := range b {
			assertSameBits(t, fmt.Sprintf("%s ReLU, row %d", k.name, r), want, y[r*lanes:][:len(pre)])
		}
		k.fn(y, x, w, b, 1, lanes, false)
		for r := range b {
			for i, v := range pre {
				if got := y[r*lanes+i]; math.Float64bits(v) != math.Float64bits(got) && !math.IsNaN(v) {
					t.Fatalf("%s without ReLU: row %d lane %d: %v, want %v", k.name, r, i, got, v)
				}
			}
		}
	}
}

// forwardAll is every input's tape Forward, concatenated input-major:
// the layout InferBatch writes.
func forwardAll(m *MLP, xs []Vec) Vec {
	var out Vec
	for _, x := range xs {
		y, _ := m.Forward(x)
		out = append(out, y...)
	}
	return out
}

// inferBatchTwice runs the batched forward on kernel k, then again after
// an arena reset, and requires the two runs to agree bit for bit.
func inferBatchTwice(t *testing.T, ctx string, m *MLP, xs []Vec, a *Arena, k func(y, x, w, b Vec, cols, lanes int, relu bool)) Vec {
	t.Helper()
	out := m.Layers[len(m.Layers)-1].OutDim()
	first := make(Vec, len(xs)*out)
	a.Reset()
	m.inferBatch(first, xs, a, k)
	second := make(Vec, len(xs)*out)
	a.Reset()
	m.inferBatch(second, xs, a, k)
	assertSameBits(t, ctx+" (arena reuse)", first, second)
	return first
}

func TestMLPInferParity(t *testing.T) {
	a := NewArena()
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(6000 + trial)))
		dims := []int{1 + rng.Intn(8)}
		for l := 0; l < 1+rng.Intn(3); l++ {
			dims = append(dims, 1+rng.Intn(10))
		}
		m := NewMLP("t.mlp", dims, rng)
		m.FinalActivation = trial%2 == 0
		for _, l := range m.Layers {
			for r := range l.B.Val {
				l.B.Val[r] = rng.NormFloat64() // NewLinear's zero biases would hide where the bias is added
			}
		}
		xs := randMat(rng, 1+rng.Intn(20), dims[0])
		want := forwardAll(m, xs)
		for _, k := range lanesKernels {
			assertSameBits(t, "MLP.inferBatch on "+k.name, want, inferBatchTwice(t, k.name, m, xs, a, k.fn))
		}
		got := make(Vec, len(want))
		m.InferBatch(got, xs, a)
		assertSameBits(t, "MLP.InferBatch", want, got)
	}
}

// specialMLP is the DQN's shape with values the kernels must not round
// differently from the tape: weights and inputs set to ±0 and to
// subnormals, -0 biases, and a row of zero weights under a -0 bias in
// every hidden layer, whose pre-activation lands exactly on ±0.
func specialMLP(rng *rand.Rand) *MLP {
	m := NewMLP("t.special", []int{10, 16, 64, 16, 1}, rng)
	for _, l := range m.Layers {
		for i := range l.W.Val {
			if rng.Intn(8) == 0 {
				l.W.Val[i] = specialValue(rng)
			}
		}
		for r := range l.B.Val {
			l.B.Val[r] = 0.1 * rng.NormFloat64()
			if rng.Intn(4) == 0 {
				l.B.Val[r] = math.Copysign(0, -1)
			}
		}
		if l.OutDim() > 1 {
			zero := rng.Intn(l.OutDim())
			clear(l.W.Row(zero))
			l.B.Val[zero] = math.Copysign(0, -1)
		}
	}
	return m
}

func specialValue(rng *rand.Rand) float64 {
	return []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, -3e-309, 2.2250738585072014e-308}[rng.Intn(7)]
}

// TestDenseLanesParity: the assembly kernel, the pure-Go kernel and the
// tape Forward agree element by element, zeros' signs included, on the
// DQN's 10-16-64-16-1 network at every batch size up to two kernel
// blocks and at the sweep sizes RLView meets (62 and 124 on wk1, 248,
// 1000), with special weights, biases and inputs: layer by layer (each
// kernel against InferInto and ReLU on the tape's own activations) and
// end to end.
func TestDenseLanesParity(t *testing.T) {
	a := NewArena()
	sizes := []int{62, 124, 248, 1000}
	for n := 1; n <= 17; n++ {
		sizes = append(sizes, n)
	}
	for i, n := range sizes {
		rng := rand.New(rand.NewSource(int64(9000 + i)))
		m := specialMLP(rng)
		xs := randMat(rng, n, 10)
		for _, x := range xs {
			for f := range x {
				if rng.Intn(6) == 0 {
					x[f] = specialValue(rng)
				}
			}
		}
		acts := xs
		for li, l := range m.Layers {
			relu := li < len(m.Layers)-1
			next := make([]Vec, n)
			for j, x := range acts {
				next[j] = make(Vec, l.OutDim())
				l.InferInto(next[j], x)
				if relu {
					next[j], _ = ReLU(next[j])
				}
			}
			lanes := padLanes(n)
			x := make(Vec, l.InDim()*lanes)
			for j, v := range acts {
				for c, xv := range v {
					x[c*lanes+j] = xv
				}
			}
			for _, k := range lanesKernels {
				y := make(Vec, l.OutDim()*lanes)
				k.fn(y, x, l.W.Val, l.B.Val, l.InDim(), lanes, relu)
				for r := 0; r < l.OutDim(); r++ {
					for j := range next {
						if math.Float64bits(y[r*lanes+j]) != math.Float64bits(next[j][r]) {
							t.Fatalf("n=%d %s layer %d: row %d lane %d: %v, want %v", n, k.name, li, r, j, y[r*lanes+j], next[j][r])
						}
					}
				}
			}
			acts = next
		}
		want := forwardAll(m, xs)
		for _, k := range lanesKernels {
			assertSameBits(t, fmt.Sprintf("n=%d %s", n, k.name), want, inferBatchTwice(t, k.name, m, xs, a, k.fn))
		}
	}
}

// TestInferConcurrentWorkers runs the batched forward from many
// goroutines, each with its own arena, against Forward outputs computed
// up front — the -race pass proves per-worker arenas fully isolate the
// scratch.
func TestInferConcurrentWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := NewMLP("t.conc", []int{6, 16, 16, 1}, rng)
	const n = 256
	xs := randMat(rng, n, 6)
	want := forwardAll(m, xs)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := NewArena()
			got := make(Vec, n)
			for lo := 0; lo < n; lo += 1 + w {
				hi := min(n, lo+1+w*7)
				a.Reset()
				m.InferBatch(got[lo:hi], xs[lo:hi], a)
				assertBitEqual(t, "concurrent MLP.InferBatch", want[lo:hi], got[lo:hi])
			}
		}()
	}
	wg.Wait()
}

func TestParallelForWorker(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8, 100} {
		const n = 64
		seen := make([]int32, n)
		ParallelForWorker(n, workers, func(w, i int) {
			eff := Workers(n, workers)
			if w < 0 || w >= eff {
				t.Errorf("worker index %d out of range [0,%d)", w, eff)
			}
			seen[i]++
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
	if got := Workers(5, 100); got != 5 {
		t.Fatalf("Workers(5, 100) = %d, want 5", got)
	}
	if got := Workers(5, 2); got != 2 {
		t.Fatalf("Workers(5, 2) = %d, want 2", got)
	}
}
