package widedeep

import (
	"autoview/internal/featenc"
	"autoview/internal/nn"
)

// kernels32 is the float32 inference mirror of the whole model: flat
// f32 copies of every layer plus the normalizer's scaling state,
// materialized lazily from the trained f64 parameters and rebuilt
// whenever they change (Fit, Load — see Model.InvalidateKernels).
// Training never touches it; the f64 forward stays bit-exact.
type kernels32 struct {
	enc       *featenc.Encoder32
	mean, std nn.Vec32 // normalizer state (length NumericDim)

	wide               *nn.Linear32
	fc1, fc2, fc3, fc4 *nn.Linear32
	fc5, fc6           *nn.Linear32

	wideOnly, deepOnly bool
}

// buildKernels32 materializes the mirror. Cheap relative to training or
// even one cold request burst: it is a flat conversion pass over the
// parameters (the folded keyword tables dominate, ~vocab × 4H floats).
func (m *Model) buildKernels32() *kernels32 {
	k := &kernels32{
		enc:  featenc.NewEncoder32(m.Enc),
		mean: make(nn.Vec32, len(m.Norm.Mean)),
		std:  make(nn.Vec32, len(m.Norm.Std)),
		wide: nn.NewLinear32(m.Wide),
		fc1:  nn.NewLinear32(m.FC1),
		fc2:  nn.NewLinear32(m.FC2),
		fc3:  nn.NewLinear32(m.FC3),
		fc4:  nn.NewLinear32(m.FC4),
		fc5:  nn.NewLinear32(m.FC5),
		fc6:  nn.NewLinear32(m.FC6),

		wideOnly: m.cfg.WideOnly,
		deepOnly: m.cfg.DeepOnly,
	}
	nn.F32From(k.mean, m.Norm.Mean)
	nn.F32From(k.std, m.Norm.Std)
	return k
}

// kernels returns the current f32 mirror, building it on first use
// after an invalidation. Concurrent builders may race benignly — both
// materialize from the same immutable-while-serving weights and the
// last store wins.
func (m *Model) kernels() *kernels32 {
	if k := m.k32.Load(); k != nil {
		return k
	}
	k := m.buildKernels32()
	m.k32.Store(k)
	return k
}

// InvalidateKernels drops the f32 mirror so the next Predict rebuilds
// it from the current f64 parameters. Fit and Load call it; callers
// that mutate Params() directly (tests, external optimizers) must call
// it themselves before serving.
func (m *Model) InvalidateKernels() { m.k32.Store(nil) }

// inferForward is the serving twin of Model.forward: the same Figure-5
// graph over the kernel mirrors, with every activation carved out of the
// caller's arena and no backward closures built. Agreement with forward
// is enforced by the tolerance harness in infer_test.go (pinned
// envelope) and the rank-preservation gate in internal/experiments, not
// bit-exactness.
func (k *kernels32) inferForward(f featenc.Features, a *nn.Arena) float64 {
	deQ := k.enc.InferPlan(f.QueryPlan, a)
	deV := k.enc.InferPlan(f.ViewPlan, a)
	return k.inferAbove(f, deQ, deV, a)
}

// inferAbove is the model above the plan codes deQ and deV (the
// encodings of f.QueryPlan and f.ViewPlan): normalization, wide part,
// schema encoding, ResNet blocks and regressor.
func (k *kernels32) inferAbove(f featenc.Features, deQ, deV nn.Vec32, a *nn.Arena) float64 {
	dc := a.Vec32(len(f.Numeric))
	for i, v := range f.Numeric {
		dc[i] = (float32(v) - k.mean[i]) / k.std[i]
	}

	dw := k.wide.Infer(dc, a)
	dm := k.enc.InferSchema(f.Schema, a)

	dr := a.Vec32(len(dc) + len(dm) + len(deQ) + len(deV))
	n := copy(dr, dc)
	n += copy(dr[n:], dm)
	n += copy(dr[n:], deQ)
	copy(dr[n:], deV)

	// ResNet block 1.
	h1 := k.fc1.Infer(dr, a)
	nn.ReLU32(h1)
	h2 := k.fc2.Infer(h1, a)
	nn.ReLU32(h2)
	z1 := a.Vec32(len(dr))
	nn.Sum32(z1, dr, h2)

	// ResNet block 2.
	h3 := k.fc3.Infer(z1, a)
	nn.ReLU32(h3)
	h4 := k.fc4.Infer(h3, a)
	nn.ReLU32(h4)
	z2 := a.Vec32(len(z1))
	nn.Sum32(z2, z1, h4)

	// Regressor; ablations drop one branch.
	var reg nn.Vec32
	switch {
	case k.wideOnly:
		reg = dw
	case k.deepOnly:
		reg = z2
	default:
		reg = a.Vec32(len(dw) + len(z2))
		copy(reg, dw)
		copy(reg[len(dw):], z2)
	}
	h5 := k.fc5.Infer(reg, a)
	nn.ReLU32(h5)
	out := k.fc6.Infer(h5, a)
	return float64(out[0])
}
