package nn

import (
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// trainerFixture is a small supervised regression problem: an MLP with
// ReLU hiddens fitted by SGD, all in pure rational arithmetic (no
// transcendental activations), so loss traces are reproducible bit-for-bit
// across platforms.
type trainerFixture struct {
	mlp     *MLP
	samples []Vec
	targets []float64
}

func newTrainerFixture(seed int64) *trainerFixture {
	rng := rand.New(rand.NewSource(seed))
	f := &trainerFixture{mlp: NewMLP("fix", []int{4, 8, 8, 1}, rng)}
	for i := 0; i < 32; i++ {
		x := make(Vec, 4)
		for j := range x {
			x[j] = rng.Float64()*2 - 1
		}
		f.samples = append(f.samples, x)
		f.targets = append(f.targets, 2*x[0]-x[1]+0.5*x[2]*x[3])
	}
	return f
}

// train runs `steps` mini-batch SGD steps at the given parallelism,
// cycling through the dataset in fixed batches of 8, and returns the
// per-step summed batch losses.
func (f *trainerFixture) train(t *testing.T, parallelism, steps int) []float64 {
	t.Helper()
	params := f.mlp.Params()
	const B = 8
	var batch []int
	trainer := NewTrainer(params, parallelism, func() ([]*Param, SampleFunc) {
		rep := f.mlp.ShareWeights()
		run := func(i int) float64 {
			s := batch[i]
			y, back := rep.Forward(f.samples[s])
			d := y[0] - f.targets[s]
			back(Vec{2 * d / B})
			return d * d
		}
		return rep.Params(), run
	})
	opt := &SGD{LR: 0.05}
	trace := make([]float64, 0, steps)
	for step := 0; step < steps; step++ {
		start := (step * B) % len(f.samples)
		batch = batch[:0]
		for i := 0; i < B; i++ {
			batch = append(batch, (start+i)%len(f.samples))
		}
		trace = append(trace, trainer.Step(B))
		opt.Step(params)
	}
	return trace
}

func (f *trainerFixture) weights() []float64 {
	var out []float64
	for _, p := range f.mlp.Params() {
		out = append(out, p.Val...)
	}
	return out
}

// TestTrainerBitwiseDeterminism trains the same model 50 steps from the
// same seed at parallelism 1, 3 and 8: final weights and loss traces must
// be identical bit-for-bit, because each sample's gradient is computed
// from a zeroed buffer and reduced in sample order regardless of worker
// count.
func TestTrainerBitwiseDeterminism(t *testing.T) {
	ref := newTrainerFixture(42)
	refTrace := ref.train(t, 1, 50)
	refW := ref.weights()
	for _, p := range []int{3, 8} {
		f := newTrainerFixture(42)
		trace := f.train(t, p, 50)
		for i := range refTrace {
			if trace[i] != refTrace[i] {
				t.Fatalf("parallelism %d: loss[%d] = %.17g, serial %.17g", p, i, trace[i], refTrace[i])
			}
		}
		w := f.weights()
		for i := range refW {
			if w[i] != refW[i] {
				t.Fatalf("parallelism %d: weight[%d] = %.17g, serial %.17g", p, i, w[i], refW[i])
			}
		}
	}
}

// TestTrainerMatchesDirectBackprop checks the replica plumbing: one
// trainer step must produce the same gradients as the classic serial
// loop accumulating directly into the canonical parameters (up to
// floating-point associativity of the cross-sample sums).
func TestTrainerMatchesDirectBackprop(t *testing.T) {
	f := newTrainerFixture(7)
	params := f.mlp.Params()
	const B = 8
	batch := []int{0, 1, 2, 3, 4, 5, 6, 7}

	trainer := NewTrainer(params, 4, func() ([]*Param, SampleFunc) {
		rep := f.mlp.ShareWeights()
		run := func(i int) float64 {
			s := batch[i]
			y, back := rep.Forward(f.samples[s])
			d := y[0] - f.targets[s]
			back(Vec{2 * d / B})
			return d * d
		}
		return rep.Params(), run
	})
	gotLoss := trainer.Step(B)
	got := make([][]float64, len(params))
	for i, p := range params {
		got[i] = append([]float64(nil), p.Grad...)
	}

	ZeroGrads(params)
	var wantLoss float64
	for _, s := range batch {
		y, back := f.mlp.Forward(f.samples[s])
		d := y[0] - f.targets[s]
		wantLoss += d * d
		back(Vec{2 * d / B})
	}
	if math.Abs(gotLoss-wantLoss) > 1e-12*(1+math.Abs(wantLoss)) {
		t.Errorf("trainer loss %g, direct loss %g", gotLoss, wantLoss)
	}
	for i, p := range params {
		for j := range p.Grad {
			if math.Abs(got[i][j]-p.Grad[j]) > 1e-12*(1+math.Abs(p.Grad[j])) {
				t.Errorf("%s grad[%d]: trainer %g, direct %g", p, j, got[i][j], p.Grad[j])
			}
		}
	}
}

// TestTrainerGoldenLossTrace pins the serial training path to a recorded
// loss trace. The fixture uses only rational arithmetic (ReLU MLP, MSE,
// plain SGD), so any drift means the numerics of the trainer, the layers,
// or the optimizer changed.
func TestTrainerGoldenLossTrace(t *testing.T) {
	f := newTrainerFixture(42)
	trace := f.train(t, 1, 50)
	golden := map[int]float64{
		0:  11.924137636086254,
		9:  9.896795720891852,
		19: 4.1377847243217003,
		29: 1.3500826905422696,
		39: 1.2622011903368016,
		49: 0.54739776165529452,
	}
	for step, want := range golden {
		if got := trace[step]; got != want {
			t.Errorf("loss[%d] = %.17g, golden %.17g", step, got, want)
		}
	}
	if trace[49] >= trace[0] {
		t.Errorf("training did not reduce loss: first %g, last %g", trace[0], trace[49])
	}
}

// TestTrainerHandlesRaggedBatches exercises batch sizes that are not a
// multiple of the worker count, including a batch smaller than it.
func TestTrainerHandlesRaggedBatches(t *testing.T) {
	for _, n := range []int{1, 3, 5, 8, 11} {
		ref := newTrainerFixture(9)
		refLoss := stepOnce(ref, 1, n)
		refW := ref.weights()
		f := newTrainerFixture(9)
		loss := stepOnce(f, 4, n)
		if loss != refLoss {
			t.Errorf("batch %d: loss %g, serial %g", n, loss, refLoss)
		}
		w := f.weights()
		for i := range refW {
			if w[i] != refW[i] {
				t.Fatalf("batch %d: weight[%d] differs", n, i)
			}
		}
	}
}

func stepOnce(f *trainerFixture, parallelism, n int) float64 {
	params := f.mlp.Params()
	trainer := NewTrainer(params, parallelism, func() ([]*Param, SampleFunc) {
		rep := f.mlp.ShareWeights()
		run := func(i int) float64 {
			y, back := rep.Forward(f.samples[i])
			d := y[0] - f.targets[i]
			back(Vec{2 * d / float64(n)})
			return d * d
		}
		return rep.Params(), run
	})
	loss := trainer.Step(n)
	(&SGD{LR: 0.05}).Step(params)
	return loss
}

// skewedSteps runs three Steps of n samples whose cost depends on the
// index — every third sample is nearly free, the others yield the
// processor up to 48 times mid-sample — so samples finish out of order
// and a worker regularly has to park a replica behind the head of the
// line. It returns the summed losses and the final weights. Each replica
// carries a busy flag that fails the test if two samples ever share it,
// and a Step that has not returned within the deadline (a lost wake-up,
// or every replica parked behind a sample no worker can start) fails
// instead of hanging.
func skewedSteps(t *testing.T, parallelism, n int) (float64, []float64) {
	t.Helper()
	f := newTrainerFixture(21)
	params := f.mlp.Params()
	trainer := NewTrainer(params, parallelism, func() ([]*Param, SampleFunc) {
		rep := f.mlp.ShareWeights()
		var busy atomic.Bool
		run := func(i int) float64 {
			if !busy.CompareAndSwap(false, true) {
				t.Errorf("P=%d n=%d: sample %d started on a replica that is still running another", parallelism, n, i)
			}
			defer busy.Store(false)
			s := i % len(f.samples)
			y, back := rep.Forward(f.samples[s])
			for k := 0; k < (i%3)*(i%7)*4; k++ {
				runtime.Gosched()
			}
			d := y[0] - f.targets[s]
			back(Vec{2 * d / float64(n)})
			return d * d
		}
		return rep.Params(), run
	})
	var loss float64
	for step := 0; step < 3; step++ {
		done := make(chan float64, 1)
		go func() { done <- trainer.Step(n) }()
		select {
		case l := <-done:
			loss += l
		case <-time.After(30 * time.Second):
			t.Fatalf("P=%d n=%d: Step %d did not return within 30s", parallelism, n, step)
		}
		(&SGD{LR: 0.05}).Step(params)
	}
	return loss, f.weights()
}

// TestTrainerOrderedFoldUnderSkew: with sample costs skewed so that
// completion order differs from sample order, every Parallelism and
// every batch size around the worker count must reproduce the serial
// run's loss and weights exactly.
func TestTrainerOrderedFoldUnderSkew(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8} {
		for _, n := range []int{1, p - 1, p, p + 1, 128} {
			wantLoss, wantW := skewedSteps(t, 1, n)
			loss, w := skewedSteps(t, p, n)
			if loss != wantLoss {
				t.Errorf("P=%d n=%d: loss %.17g, serial %.17g", p, n, loss, wantLoss)
			}
			for i := range wantW {
				if w[i] != wantW[i] {
					t.Fatalf("P=%d n=%d: weight[%d] = %.17g, serial %.17g", p, n, i, w[i], wantW[i])
				}
			}
		}
	}
}

// TestGradViewSharesWeights pins the replica contract: weight updates are
// visible through views, gradients are not.
func TestGradViewSharesWeights(t *testing.T) {
	p := NewParam("w", 2, 2)
	v := p.GradView()
	p.Val[3] = 9
	if v.Val[3] != 9 {
		t.Error("view should share weight storage")
	}
	v.Grad[0] = 5
	if p.Grad[0] != 0 {
		t.Error("view must not share gradient storage")
	}
	if v.Name != p.Name || v.Rows != p.Rows || v.Cols != p.Cols {
		t.Error("view should preserve metadata")
	}
}

// TestTrainerAccumulateFoldsOntoStep: a second trainer over a subset of
// the parameters, sharing the first one's replicas, adds its items'
// gradients in index order onto what Step left — bit-identical to the
// serial fold at every Parallelism — leaves the parameters outside its
// subset alone, and counts no samples.
func TestTrainerAccumulateFoldsOntoStep(t *testing.T) {
	const n = 11
	grads := func(parallelism int) (all []float64, loss float64) {
		f := newTrainerFixture(13)
		params := f.mlp.Params()
		run := func(rep *MLP, scale float64) SampleFunc {
			return func(i int) float64 {
				y, back := rep.Forward(f.samples[i])
				d := y[0] - f.targets[i]
				back(Vec{scale * d})
				return d * d
			}
		}
		var reps []*MLP
		step := NewTrainer(params, parallelism, func() ([]*Param, SampleFunc) {
			rep := f.mlp.ShareWeights()
			reps = append(reps, rep)
			return rep.Params(), run(rep, 2)
		})
		first := f.mlp.Layers[0].Params()
		acc := NewTrainer(first, parallelism, func() ([]*Param, SampleFunc) {
			rep := reps[0]
			reps = reps[1:]
			return rep.Layers[0].Params(), run(rep, -0.5)
		})
		before := obsTrainSamples.Value()
		loss = step.Step(n)
		loss += acc.Accumulate(n - 3)
		if got := obsTrainSamples.Value() - before; got != n {
			t.Errorf("P=%d: nn.train.samples moved by %d, want %d (Accumulate must not count)", parallelism, got, n)
		}
		for _, p := range params {
			all = append(all, p.Grad...)
		}
		return all, loss
	}

	// Serial reference: each item's gradient from a zeroed buffer, added
	// in index order; the second pass onto the first layer only.
	f := newTrainerFixture(13)
	params := f.mlp.Params()
	rep := f.mlp.ShareWeights()
	ZeroGrads(params)
	var wantLoss float64
	pass := func(items int, scale float64, fold int) {
		for i := 0; i < items; i++ {
			ZeroGrads(rep.Params())
			y, back := rep.Forward(f.samples[i])
			d := y[0] - f.targets[i]
			back(Vec{scale * d})
			wantLoss += d * d
			for pi, p := range params[:fold] {
				addInto(p.Grad, rep.Params()[pi].Grad)
			}
		}
	}
	pass(n, 2, len(params))
	pass(n-3, -0.5, len(f.mlp.Layers[0].Params()))
	var want []float64
	for _, p := range params {
		want = append(want, p.Grad...)
	}

	for _, p := range []int{1, 2, 8} {
		got, loss := grads(p)
		if loss != wantLoss {
			t.Errorf("P=%d: loss %.17g, serial %.17g", p, loss, wantLoss)
		}
		assertBitEqual(t, "Step+Accumulate gradients", want, got)
	}
}
