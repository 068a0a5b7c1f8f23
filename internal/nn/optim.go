package nn

import "math"

// SGD is plain stochastic gradient descent with optional gradient clipping.
type SGD struct {
	LR   float64
	Clip float64 // per-element clip when > 0
}

// Step applies one update from the accumulated gradients.
func (o *SGD) Step(params []*Param) {
	clip := o.Clip > 0
	for _, p := range params {
		for i := range p.Val {
			g := p.Grad[i]
			if clip {
				g = clamp(g, -o.Clip, o.Clip)
			}
			p.Val[i] -= o.LR * g
		}
	}
}

// Adam implements the Adam optimizer (Kingma & Ba, the paper's reference
// [23]) with per-parameter moment state.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64
	Clip    float64 // per-element gradient clip when > 0

	t     int
	state map[*Param]*adamState
}

type adamState struct {
	m, v []float64
}

// NewAdam returns Adam with the usual defaults (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR:      lr,
		Beta1:   0.9,
		Beta2:   0.999,
		Epsilon: 1e-8,
		state:   make(map[*Param]*adamState),
	}
}

// Step applies one update from the accumulated gradients.
func (o *Adam) Step(params []*Param) {
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	clip := o.Clip > 0
	for _, p := range params {
		st, ok := o.state[p]
		if !ok {
			st = &adamState{m: make([]float64, p.Size()), v: make([]float64, p.Size())}
			o.state[p] = st
		}
		for i := range p.Val {
			g := p.Grad[i]
			if clip {
				g = clamp(g, -o.Clip, o.Clip)
			}
			st.m[i] = o.Beta1*st.m[i] + (1-o.Beta1)*g
			st.v[i] = o.Beta2*st.v[i] + (1-o.Beta2)*g*g
			mHat := st.m[i] / bc1
			vHat := st.v[i] / bc2
			p.Val[i] -= o.LR * mHat / (math.Sqrt(vHat) + o.Epsilon)
		}
	}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
