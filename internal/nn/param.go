// Package nn is a small from-scratch neural-network library: parameters,
// dense/embedding/convolution/LSTM layers with exact backpropagation, and
// SGD/Adam optimizers. It substitutes for the PyTorch models the
// paper uses (Wide-Deep cost estimator, DQN) with identical architectures.
//
// The design is functional: every Forward call returns the output together
// with a backward closure, so layers can be applied repeatedly within one
// sample (LSTM time steps, shared embeddings) and gradients accumulate
// correctly into the shared parameters.
//
// Besides the tape Forward, a layer has at most one forward-only
// definition, chosen by which network uses it: the dense stack
// (Linear, MLP — the DQN) has float64 Infer methods, bit-identical to
// Forward (infer.go); every layer of the Wide-Deep estimator has a
// float32 mirror (*32 types, infer32.go) over the blocked kernels of
// kernels32.go. Both draw scratch from an Arena. The two element types
// never share a caller, so there are no kernels generic over them. W-D
// training runs its layers over a whole mini-batch at once instead of
// through Forward's tapes (lanestrain.go, ConvBlock.ForwardTape), with
// Forward's arithmetic bit for bit, and adds their parameter gradients
// by ordered reductions.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Vec is a dense float64 vector.
type Vec = []float64

// Param is one learnable tensor (stored flat) with its gradient
// accumulator.
type Param struct {
	Name string
	Val  []float64
	Grad []float64
	// Rows/Cols describe the logical matrix shape (Rows=1 for vectors).
	Rows, Cols int
}

// NewParam allocates a zero-initialized parameter.
func NewParam(name string, rows, cols int) *Param {
	return &Param{
		Name: name,
		Val:  make([]float64, rows*cols),
		Grad: make([]float64, rows*cols),
		Rows: rows,
		Cols: cols,
	}
}

// InitXavier fills the parameter with Glorot-uniform noise.
func (p *Param) InitXavier(rng *rand.Rand) *Param {
	fanIn, fanOut := p.Cols, p.Rows
	if fanIn == 0 {
		fanIn = 1
	}
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range p.Val {
		p.Val[i] = (rng.Float64()*2 - 1) * limit
	}
	return p
}

// Row returns the r-th row slice (shared storage).
func (p *Param) Row(r int) []float64 { return p.Val[r*p.Cols : (r+1)*p.Cols] }

// GradRow returns the r-th gradient row slice (shared storage).
func (p *Param) GradRow(r int) []float64 { return p.Grad[r*p.Cols : (r+1)*p.Cols] }

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { clear(p.Grad) }

// GradView returns a parameter sharing p's weight storage with a private
// zeroed gradient buffer — the building block of per-worker gradient
// accumulation in the data-parallel Trainer. Updates to the weights (Val)
// are visible through every view; gradients are not.
func (p *Param) GradView() *Param {
	return &Param{
		Name: p.Name,
		Val:  p.Val,
		Grad: make([]float64, len(p.Val)),
		Rows: p.Rows,
		Cols: p.Cols,
	}
}

// Size returns the number of scalar parameters.
func (p *Param) Size() int { return len(p.Val) }

func (p *Param) String() string {
	return fmt.Sprintf("%s[%dx%d]", p.Name, p.Rows, p.Cols)
}

// Module is anything holding learnable parameters.
type Module interface {
	Params() []*Param
}

// CollectParams flattens the parameters of several modules.
func CollectParams(mods ...Module) []*Param {
	var out []*Param
	for _, m := range mods {
		out = append(out, m.Params()...)
	}
	return out
}

// ZeroGrads clears all gradients.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// AddGrads adds each parameter's gradient in src onto the matching one
// in dst (aligned index for index, as a replica's are with the canonical
// parameters), one add per element: the fold of a gradient computed into
// a zeroed replica.
func AddGrads(dst, src []*Param) {
	for i, p := range dst {
		addInto(p.Grad, src[i].Grad)
	}
}

// ZeroGradRows clears the gradient rows rows names.
func (p *Param) ZeroGradRows(rows []int) {
	for _, r := range rows {
		clear(p.GradRow(r))
	}
}

// Backward is the gradient closure returned by Forward passes: it takes
// dL/dy and returns dL/dx while accumulating parameter gradients.
type Backward func(dy Vec) Vec

// zeros allocates an n-vector.
func zeros(n int) Vec { return make(Vec, n) }

// addInto accumulates src into dst (dst must be at least as long as src).
// It is the trainer's gradient fold, a quarter of a serial step. Four
// elements go per iteration: the one-element loop's speed depended on
// where the linker placed it (the same source, inlined 32 bytes further
// on, ran a whole Trainer.Step 7% faster or slower). Each element is
// still one add of its own, so unrolling cannot change a result.
func addInto(dst, src Vec) {
	dst = dst[:len(src)]
	i := 0
	for ; i+4 <= len(src); i += 4 {
		d, s := dst[i:i+4:i+4], src[i:i+4:i+4]
		d[0] += s[0]
		d[1] += s[1]
		d[2] += s[2]
		d[3] += s[3]
	}
	for ; i < len(src); i++ {
		dst[i] += src[i]
	}
}

// Concat joins vectors into one carved from a (nil: the heap).
func Concat(a *Arena, vs ...Vec) Vec {
	n := 0
	for _, v := range vs {
		n += len(v)
	}
	out := a.Vec(n)[:0]
	for _, v := range vs {
		out = append(out, v...)
	}
	return out
}

// SplitBackward splits a gradient of a concatenation back into pieces of
// the given lengths.
func SplitBackward(d Vec, lens ...int) []Vec {
	out := make([]Vec, len(lens))
	off := 0
	for i, n := range lens {
		out[i] = d[off : off+n]
		off += n
	}
	return out
}
