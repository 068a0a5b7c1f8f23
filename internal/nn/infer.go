package nn

import (
	"math/bits"

	"autoview/internal/obs"
)

// Batched-forward work: what InferBatch's kernels were asked for and
// what they skipped as all-+0 input blocks, one add each per call.
var (
	obsInferMACs    = obs.Default.Counter("nn.infer.macs", "multiply-adds MLP.InferBatch's layers span, padded lanes included")
	obsInferSkipped = obs.Default.Counter("nn.infer.macs.skipped", "of nn.infer.macs, those skipped as all-+0 input blocks")
)

// Forward-only float64 inference for the dense stack — the DQN's action
// scoring and bootstrap target (internal/rl). Results are bit-identical
// to Forward (Linear.Forward computes its output through InferInto, each
// lane of the batched kernel runs InferInto's chain but for the terms
// w·(+0) of input blocks that are all +0, whose absence a ReLU cannot
// see, and the parity tests in infer_test.go enforce `==`), but no
// backward closures are built and activations live in an Arena, so a
// warm evaluation allocates nothing. The W-D estimator does not serve
// from here: its forward-only path is the float32 mirror (infer32.go,
// kernels32.go).

// InferInto applies the layer forward-only, writing the output into dst
// (length OutDim). dst must not alias x. This is the package's one
// single-vector f64 matvec loop: Forward calls it, and LSTM.Forward for
// its gate pre-activations. Rows go four at a time so four
// independent add chains are in flight (a single chain is bound by the
// add latency, and that tight loop's speed swung 25% with where the
// linker happened to place it); each row still accumulates bias first,
// then columns left to right, so blocking never changes a result.
func (l *Linear) InferInto(dst Vec, x Vec) {
	out, in := l.W.Rows, l.W.Cols
	w, b := l.W.Val, l.B.Val
	n := len(x)
	r := 0
	for ; r+4 <= out; r += 4 {
		r0 := w[r*in:][:n]
		r1 := w[(r+1)*in:][:n]
		r2 := w[(r+2)*in:][:n]
		r3 := w[(r+3)*in:][:n]
		s0, s1, s2, s3 := b[r], b[r+1], b[r+2], b[r+3]
		for c, xv := range x {
			s0 += r0[c] * xv
			s1 += r1[c] * xv
			s2 += r2[c] * xv
			s3 += r3[c] * xv
		}
		dst[r], dst[r+1], dst[r+2], dst[r+3] = s0, s1, s2, s3
	}
	for ; r < out; r++ {
		row := w[r*in:][:n]
		sum := b[r]
		for c, xv := range x {
			sum += row[c] * xv
		}
		dst[r] = sum
	}
}

// InferBatch applies all layers forward-only, with ReLU between them, to
// every input of xs at once, and writes output k of input j to
// dst[j·OutDim + k] (for a one-output network, dst[j] is xs[j]'s value).
// Every input has the first layer's width. The activations are carved
// from a, feature-major with the input count padded to the kernel's
// lane block, and each layer is one denseLanes call. A layer of at most
// 64 rows whose successor has ReLU records, per block of eight lanes,
// which of its rows are not all +0; the successor, unless a weight of
// it is not finite, adds only those columns' terms (lanes64.go says why
// that is exact). nn.infer.macs and nn.infer.macs.skipped count the
// multiply-adds asked for and skipped, padded lanes included.
func (m *MLP) InferBatch(dst Vec, xs []Vec, a *Arena) {
	m.inferBatch(dst, xs, a, denseLanes)
}

// laneKernel is denseLanes' signature; the parity tests run inferBatch
// on denseLanesGo too.
type laneKernel func(y, x, w, b Vec, live, rows []uint64, cols, lanes int, relu bool)

// inferBatch is InferBatch on the given kernel.
func (m *MLP) inferBatch(dst Vec, xs []Vec, a *Arena, kernel laneKernel) {
	n := len(xs)
	if n == 0 {
		return
	}
	lanes := padLanes(n)
	in := m.Layers[0].InDim()
	cur := a.Vec(in * lanes)
	for j, x := range xs {
		for f, v := range x[:in] {
			cur[f*lanes+j] = v
		}
	}
	last := len(m.Layers) - 1
	relu := func(i int) bool { return i < last || m.FinalActivation }
	var live []uint64 // cur's rows that are not all +0, per block; nil: unknown
	var macs, skipped int
	for i, l := range m.Layers {
		rows, cols := l.OutDim(), l.InDim()
		if live != nil && !(relu(i) && allFinite(l.W.Val)) {
			live = nil
		}
		var out []uint64
		if i < last && relu(i+1) && rows <= 64 {
			out = a.words(lanes / laneWidth)
		}
		y := a.raw(rows * lanes)
		kernel(y, cur, l.W.Val, l.B.Val, live, out, cols, lanes, relu(i))
		macs += rows * cols * lanes
		for _, w := range live {
			skipped += (cols - bits.OnesCount64(w)) * rows * laneWidth
		}
		cur, live = y, out
	}
	obsInferMACs.Add(int64(macs))
	obsInferSkipped.Add(int64(skipped))
	out := m.Layers[last].OutDim()
	for k := 0; k < out; k++ {
		for j, v := range cur[k*lanes:][:n] {
			dst[j*out+k] = v
		}
	}
}
