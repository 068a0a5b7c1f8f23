package rl

import (
	"io"
	"math/rand"

	"autoview/internal/nn"
)

// QNetwork abstracts the Q-value predictor so the agent can run either the
// paper's plain four-layer MLP or the dueling architecture it cites
// (Wang et al., ICML 2016 — the paper's reference [42]).
type QNetwork interface {
	nn.Module
	// Forward returns Q(e,a) for one action's features plus the
	// backward closure.
	Forward(feat nn.Vec) (float64, func(dy float64))
	// Infer returns Q(e,a) forward-only, drawing scratch from the
	// arena: bit-identical to Forward but with no backward closures and
	// no heap allocations — action scoring and the Learn bootstrap.
	Infer(feat nn.Vec, a *nn.Arena) float64
	// Clone returns an architecture copy with independent parameters
	// initialized to the same values (for target networks).
	Clone() QNetwork
	// ShareWeights returns a replica sharing weight storage with private
	// gradient buffers, in Params() order (for data-parallel training
	// workers; see nn.Trainer).
	ShareWeights() QNetwork
}

// mlpQ wraps the plain MLP as a QNetwork.
type mlpQ struct{ net *nn.MLP }

// NewMLPQ builds the paper's four-layer Q-network (16-64-16-1, ReLU).
func NewMLPQ(rng *rand.Rand) QNetwork {
	return &mlpQ{net: nn.NewMLP("dqn", []int{FeatureDim, 16, 64, 16, 1}, rng)}
}

func (m *mlpQ) Params() []*nn.Param { return m.net.Params() }

func (m *mlpQ) Forward(feat nn.Vec) (float64, func(dy float64)) {
	y, back := m.net.Forward(feat)
	return y[0], func(dy float64) { back(nn.Vec{dy}) }
}

func (m *mlpQ) Infer(feat nn.Vec, a *nn.Arena) float64 {
	return m.net.Infer(feat, a)[0]
}

func (m *mlpQ) Clone() QNetwork {
	cp := &mlpQ{net: nn.NewMLP("dqn", []int{FeatureDim, 16, 64, 16, 1}, rand.New(rand.NewSource(0)))}
	copyParams(cp.net.Params(), m.net.Params())
	return cp
}

func (m *mlpQ) ShareWeights() QNetwork { return &mlpQ{net: m.net.ShareWeights()} }

// DuelingQ decomposes Q(e,a) = V(e) + A(e,a): a shared trunk feeds a
// state-value head and an advantage head. With per-action featurized
// inputs, the value head reads the global state summary features and the
// advantage head reads the full vector; the published mean-advantage
// centering is approximated per-action (each action is evaluated
// independently), which preserves the architecture's better value
// propagation while keeping the agent's per-action evaluation interface.
type DuelingQ struct {
	Trunk *nn.Linear // FeatureDim -> hidden
	Value *nn.MLP    // hidden -> 1
	Adv   *nn.MLP    // hidden -> 1
}

// NewDuelingQ builds the dueling network with the same parameter budget
// scale as the plain DQN.
func NewDuelingQ(rng *rand.Rand) QNetwork {
	return &DuelingQ{
		Trunk: nn.NewLinear("duel.trunk", FeatureDim, 32, rng),
		Value: nn.NewMLP("duel.value", []int{32, 16, 1}, rng),
		Adv:   nn.NewMLP("duel.adv", []int{32, 16, 1}, rng),
	}
}

// Params implements nn.Module.
func (d *DuelingQ) Params() []*nn.Param {
	return nn.CollectParams(d.Trunk, d.Value, d.Adv)
}

// Forward implements QNetwork.
func (d *DuelingQ) Forward(feat nn.Vec) (float64, func(dy float64)) {
	h, bTrunk := d.Trunk.Forward(feat)
	a, bAct := nn.ReLU(h)
	v, bV := d.Value.Forward(a)
	adv, bA := d.Adv.Forward(a)
	q := v[0] + adv[0]
	back := func(dy float64) {
		dA1 := bV(nn.Vec{dy})
		dA2 := bA(nn.Vec{dy})
		dA := make(nn.Vec, len(dA1))
		for i := range dA {
			dA[i] = dA1[i] + dA2[i]
		}
		dH := bAct(dA)
		bTrunk(dH)
	}
	return q, back
}

// Infer implements QNetwork: the same trunk → value/advantage
// computation as Forward with arena-backed scratch (the trunk ReLU runs
// in place — elementwise, so values match Forward exactly).
func (d *DuelingQ) Infer(feat nn.Vec, a *nn.Arena) float64 {
	h := d.Trunk.Infer(feat, a)
	nn.ReLUInto(h, h)
	v := d.Value.Infer(h, a)
	adv := d.Adv.Infer(h, a)
	return v[0] + adv[0]
}

// Clone implements QNetwork.
func (d *DuelingQ) Clone() QNetwork {
	cp := NewDuelingQ(rand.New(rand.NewSource(0))).(*DuelingQ)
	copyParams(cp.Params(), d.Params())
	return cp
}

// ShareWeights implements QNetwork.
func (d *DuelingQ) ShareWeights() QNetwork {
	return &DuelingQ{
		Trunk: d.Trunk.ShareWeights(),
		Value: d.Value.ShareWeights(),
		Adv:   d.Adv.ShareWeights(),
	}
}

// copyParams copies values positionally (architectures are identical by
// construction).
func copyParams(dst, src []*nn.Param) {
	for i := range dst {
		copy(dst[i].Val, src[i].Val)
	}
}

// SaveQNetwork persists any QNetwork's parameters.
func SaveQNetwork(w io.Writer, q QNetwork) error { return nn.SaveParams(w, q.Params()) }

// LoadQNetwork restores parameters into an identically configured network.
func LoadQNetwork(r io.Reader, q QNetwork) error { return nn.LoadParams(r, q.Params()) }
