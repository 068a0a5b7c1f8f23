package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// The f64 forward-only path (the DQN's scoring and bootstrap) promises
// bit-identity with the training forward: every test here compares with
// ==, not a tolerance.

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

// inferTwice runs fn once, snapshots the result, resets the arena and
// runs it again — proving results survive arena reuse bit-exactly.
func inferTwice(t *testing.T, ctx string, a *Arena, fn func() Vec) Vec {
	t.Helper()
	a.Reset()
	first := append(Vec(nil), fn()...)
	a.Reset()
	second := fn()
	assertBitEqual(t, ctx+" (arena reuse)", first, second)
	return first
}

func TestLinearInferParity(t *testing.T) {
	a := NewArena()
	for trial := 0; trial < 120; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		in, out := 1+rng.Intn(12), 1+rng.Intn(12)
		l := NewLinear("t.lin", in, out, rng)
		x := randVec(rng, in)
		// The unblocked definition — bias first, then columns left to
		// right, one row at a time — which the row-blocked loop behind
		// Forward and Infer must reproduce exactly.
		ref := make(Vec, out)
		for r := range ref {
			ref[r] = l.B.Val[r]
			for c, xv := range x {
				ref[r] += l.W.Row(r)[c] * xv
			}
		}
		want, _ := l.Forward(x)
		assertBitEqual(t, "Linear.Forward vs unblocked reference", ref, want)
		got := inferTwice(t, "Linear", a, func() Vec { return l.Infer(x, a) })
		assertBitEqual(t, "Linear.Infer", want, got)
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

func TestReLUInferParity(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(2000 + trial)))
		x := randVec(rng, 1+rng.Intn(20))
		want, _ := ReLU(x)
		dst := make(Vec, len(x))
		ReLUInto(dst, x)
		assertBitEqual(t, "ReLUInto", want, dst)
		// In place: dst aliasing x must produce the same values.
		alias := append(Vec(nil), x...)
		ReLUInto(alias, alias)
		assertBitEqual(t, "ReLUInto (aliased)", want, alias)
	}
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
		x := randVec(rng, dims[0])
		want, _ := m.Forward(x)
		got := inferTwice(t, "MLP", a, func() Vec { return m.Infer(x, a) })
		assertBitEqual(t, "MLP.Infer", want, got)
	}
}

// TestInferConcurrentWorkers runs the fast path from many goroutines,
// each with its own arena, against Forward outputs computed up front —
// the -race pass proves per-worker arenas fully isolate the scratch.
func TestInferConcurrentWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := NewMLP("t.conc", []int{6, 16, 16, 1}, rng)
	const n = 256
	xs := make([]Vec, n)
	want := make([]Vec, n)
	for i := range xs {
		xs[i] = randVec(rng, 6)
		want[i], _ = m.Forward(xs[i])
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := NewArena()
			for i := 0; i < n; i++ {
				a.Reset()
				got := m.Infer(xs[i], a)
				assertBitEqual(t, "concurrent MLP.Infer", want[i], got)
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
