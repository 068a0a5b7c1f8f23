package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sameBits fails t unless got and want hold the same bits element for
// element.
func sameBits(t *testing.T, what string, got, want Vec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestLSTMLanesMatchesPerSequenceBackward holds the batched LSTM to
// LSTM.Forward run on each sequence alone, bit for bit: the final
// states, every step's input gradient, and the weight gradients a
// per-sample pass leaves — each sample's sequences backpropagated into
// one zeroed replica, the replicas added in sample order — against the
// tapes' segments folded over row blocks of every size. The sequences
// include empty ones, ties, and more than one block of lanes.
func TestLSTMLanesMatchesPerSequenceBackward(t *testing.T) {
	for _, shape := range []struct{ in, hidden, per int }{{5, 7, 1}, {16, 16, 2}, {3, 2, 2}} {
		t.Run(fmt.Sprintf("in%d_h%d_per%d", shape.in, shape.hidden, shape.per), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(shape.in*100 + shape.hidden)))
			lstm := NewLSTM("l", shape.in, shape.hidden, rng)
			c := lstm.Cell
			lens := []int{3, 0, 12, 1, 3, 9, 0, 0, 5, 11, 2, 2, 7, 4, 1, 6, 10, 3}
			xs := make([][]Vec, len(lens))
			dh := make(Vec, len(lens)*c.Hidden)
			for s, T := range lens {
				for step := 0; step < T; step++ {
					xs[s] = append(xs[s], randVec(rng, c.In))
				}
				copy(dh[s*c.Hidden:], randVec(rng, c.Hidden))
			}

			// The per-sample reference, sample = per consecutive sequences.
			wantW, wantB := make(Vec, c.W.Size()), make(Vec, c.B.Size())
			var wantOut, wantDx []Vec
			rep := lstm.ShareWeights()
			for s0 := 0; s0 < len(lens); s0 += shape.per {
				ZeroGrads(rep.Params())
				for s := s0; s < min(s0+shape.per, len(lens)); s++ {
					h, back := rep.Forward(xs[s], nil)
					wantOut = append(wantOut, append(Vec(nil), h...))
					for _, d := range back(dh[s*c.Hidden:][:c.Hidden]) {
						wantDx = append(wantDx, append(Vec(nil), d...))
					}
				}
				addInto(wantW, rep.Cell.W.Grad)
				addInto(wantB, rep.Cell.B.Grad)
			}

			// Two tapes, split at a sample boundary, folded in order.
			wt := make(Vec, c.W.Size())
			Transpose(wt, c.W.Val, 4*c.Hidden, c.In+c.Hidden)
			split := 4 * shape.per
			var tapes [2]LSTMLanes
			for round := 0; round < 2; round++ { // the second round reuses the tapes
				tapes[0].Forward(c, wt, xs[:split])
				tapes[1].Forward(c, wt, xs[split:])
				tapes[0].Backward(dh[:split*c.Hidden], shape.per)
				tapes[1].Backward(dh[split*c.Hidden:], shape.per)
				k := 0
				for s := range lens {
					tp, ts := &tapes[0], s
					if s >= split {
						tp, ts = &tapes[1], s-split
					}
					sameBits(t, fmt.Sprintf("round %d seq %d out", round, s), tp.Out(ts), wantOut[s])
					for step := range xs[s] {
						sameBits(t, fmt.Sprintf("seq %d step %d dx", s, step), tp.InputGrad(ts, step), wantDx[k])
						k++
					}
				}
				G := 4 * c.Hidden
				for _, block := range []int{1, 3, G} {
					ZeroGrads(lstm.Params())
					for r0 := 0; r0 < G; r0 += block {
						for i := range tapes {
							tapes[i].FoldGrads(r0, min(r0+block, G))
						}
					}
					sameBits(t, fmt.Sprintf("block %d W grad", block), c.W.Grad, wantW)
					sameBits(t, fmt.Sprintf("block %d B grad", block), c.B.Grad, wantB)
				}
			}
		})
	}
}

// TestDenseLanesMatchesLinear holds a dense layer over lanes to
// Linear.Forward and its backward run sample by sample into zeroed
// replicas folded in sample order, bit for bit, with and without ReLU,
// for sample counts on and off the lane block, and gradients with zero
// rows (which Linear's backward skips).
func TestDenseLanesMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, relu := range []bool{false, true} {
		for _, n := range []int{1, 7, 8, 13, 30} {
			l := NewLinear("d", 11, 6, rng)
			xs, dys := make([]Vec, n), make([]Vec, n)
			for i := range xs {
				xs[i], dys[i] = randVec(rng, 11), randVec(rng, 6)
				dys[i][i%6] = 0
				if i%3 == 0 {
					dys[i][(i+1)%6] = math.Copysign(0, -1)
				}
			}
			wantW, wantB := make(Vec, l.W.Size()), make(Vec, l.B.Size())
			rep := l.ShareWeights()
			var wantY, wantDx []Vec
			for i, x := range xs {
				ZeroGrads(rep.Params())
				y, back := rep.Forward(x)
				dy := dys[i]
				if relu {
					a, ab := ReLU(y)
					y, dy = a, ab(dy)
				}
				wantY = append(wantY, y)
				wantDx = append(wantDx, back(dy))
				addInto(wantW, rep.W.Grad)
				addInto(wantB, rep.B.Grad)
			}

			lanes := PadLanes(n)
			x, dy := make(Vec, 11*lanes), make(Vec, 6*lanes)
			for i := range xs {
				for f, v := range xs[i] {
					x[f*lanes+i] = v
				}
				for f, v := range dys[i] {
					dy[f*lanes+i] = v
				}
			}
			wt := make(Vec, l.W.Size())
			Transpose(wt, l.W.Val, 6, 11)
			a := NewArena()
			// Two blocks of lanes, folded in order.
			var d [2]DenseLanes
			half := n / 2
			ys := []Vec{nil, nil}
			dxs := []Vec{nil, nil}
			for b, rng := range [2][2]int{{0, half}, {half, n}} {
				m := rng[1] - rng[0]
				L := PadLanes(m)
				xb, dyb := make(Vec, 11*L), make(Vec, 6*L)
				for i := 0; i < m; i++ {
					for f := 0; f < 11; f++ {
						xb[f*L+i] = x[f*lanes+rng[0]+i]
					}
					for f := 0; f < 6; f++ {
						dyb[f*L+i] = dy[f*lanes+rng[0]+i]
					}
				}
				ys[b] = d[b].Forward(l, xb, m, relu, a)
				dxs[b] = d[b].Backward(dyb, wt, a)
			}
			for i := 0; i < n; i++ {
				b, j := 0, i
				if i >= half {
					b, j = 1, i-half
				}
				L := PadLanes(d[b].n)
				got := make(Vec, 6)
				for f := range got {
					got[f] = ys[b][f*L+j]
				}
				sameBits(t, fmt.Sprintf("relu %v n %d sample %d y", relu, n, i), got, wantY[i])
				gotDx := make(Vec, 11)
				for f := range gotDx {
					gotDx[f] = dxs[b][f*L+j]
				}
				sameBits(t, fmt.Sprintf("relu %v n %d sample %d dx", relu, n, i), gotDx, wantDx[i])
			}
			ZeroGrads(l.Params())
			for r0 := 0; r0 < 6; r0 += 4 {
				AddDenseGrads(l, []*DenseLanes{&d[0], &d[1]}, r0, min(r0+4, 6))
			}
			sameBits(t, fmt.Sprintf("relu %v n %d W grad", relu, n), l.W.Grad, wantW)
			sameBits(t, fmt.Sprintf("relu %v n %d B grad", relu, n), l.B.Grad, wantB)
		}
	}
}

// TestSegmentsFoldMatchesSerialFold: the ordered reduction, split over
// row blocks and run on several goroutines, equals the serial fold it
// replaces — each segment's product summed from +0 into a zeroed
// buffer, the buffers added in segment order — bit for bit, on terms
// holding ±0, subnormals, and products that cancel exactly.
func TestSegmentsFoldMatchesSerialFold(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const rows, ld = 13, 11
	special := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1000))
		case 3:
			return -math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1000))
		case 4:
			return float64(rng.Intn(7) - 3) // small integers: exact cancellations
		}
		return rng.NormFloat64()
	}
	cols := []int{3, 0, 1, 7, 16, 2, 9, 0, 5}
	s := segments{rows: rows, ld: ld, off: []int{0}}
	for _, c := range cols {
		s.off = append(s.off, s.off[len(s.off)-1]+c)
	}
	total := s.off[len(s.off)-1]
	s.x, s.w = make(Vec, total*ld), make(Vec, rows*total)
	for i := range s.x {
		s.x[i] = special()
	}
	for i := range s.w {
		s.w[i] = special()
	}
	// Segment 3's columns 4 to 6 cancel its columns 0 to 2 exactly.
	lo := s.off[3]
	for col := 0; col < 3; col++ {
		for r := 0; r < rows; r++ {
			s.w[(lo+4+col)*rows+r] = -s.w[(lo+col)*rows+r]
		}
	}
	copy(s.x[(lo+4)*ld:(lo+7)*ld], s.x[lo*ld:(lo+3)*ld])

	// The serial fold: one zeroed replica per segment, scalar chains.
	wantY, wantB := make(Vec, rows*ld), make(Vec, rows)
	for k, c := range cols {
		lo := s.off[k]
		part, partB := make(Vec, rows*ld), make(Vec, rows)
		for r := 0; r < rows; r++ {
			for col := 0; col < c; col++ {
				w := s.w[(lo+col)*rows+r]
				for j := 0; j < ld; j++ {
					part[r*ld+j] += w * s.x[(lo+col)*ld+j]
				}
				partB[r] += w
			}
		}
		for i := range wantY {
			wantY[i] += part[i]
		}
		for i := range wantB {
			wantB[i] += partB[i]
		}
	}
	for _, workers := range []int{1, 2, 3, 8} {
		for _, block := range []int{1, 4, rows} {
			y, b := make(Vec, rows*ld), make(Vec, rows)
			jobs := (rows + block - 1) / block
			ParallelFor(jobs, workers, func(j int) {
				s.foldRows(y, b, j*block, min((j+1)*block, rows))
			})
			sameBits(t, fmt.Sprintf("P=%d block %d y", workers, block), y, wantY)
			sameBits(t, fmt.Sprintf("P=%d block %d b", workers, block), b, wantB)
		}
	}
}

// TestMulAddSegmentParity holds mulAddSegment, and its two block
// kernels on their blocks, to the scalar definition — each element's
// terms summed from +0 in column order, then added to y — bit for bit,
// over row-major and column-major weights, ragged lane counts, and
// operands holding ±0, subnormals, infinities and NaNs.
func TestMulAddSegmentParity(t *testing.T) {
	kernels := []struct {
		name string
		fn   func(y, x, w Vec, rows, cols, ld, lanes, rs, cs int)
	}{{"foldLanes", foldLanes}, {"foldLanesGo", foldLanesGo}}
	for i, shape := range [][3]int{{1, 64, 32}, {64, 5, 32}, {64, 1, 8}, {3, 7, 13}, {2, 3, 5}, {5, 9, 24},
		{4, 3, 16}, {7, 6, 21}, {9, 11, 40}, {16, 30, 32}} {
		rows, cols, ld := shape[0], shape[1], shape[2]
		for _, major := range []string{"row", "col"} {
			rs, cs := cols, 1
			if major == "col" {
				rs, cs = 1, rows
			}
			rng := rand.New(rand.NewSource(int64(8100 + i)))
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
					var s float64
					for c := 0; c < cols; c++ {
						s += w[r*rs+c*cs] * x[c*ld+j]
					}
					want[r*ld+j] += s
				}
			}
			got := append(Vec(nil), y0...)
			mulAddSegment(got, x, w, rows, cols, ld, rs, cs)
			assertSameBits(t, fmt.Sprintf("mulAddSegment %v %s-major", shape, major), want, got)
			n8 := ld &^ (laneWidth - 1)
			for _, k := range kernels {
				got := append(Vec(nil), y0...)
				k.fn(got, x, w, rows, cols, ld, n8, rs, cs)
				for r := 0; r < rows; r++ {
					for j := 0; j < ld; j++ {
						e, want := r*ld+j, want[r*ld+j]
						if j >= n8 {
							want = y0[e] // past the blocks: untouched
						}
						if math.Float64bits(got[e]) != math.Float64bits(want) {
							t.Fatalf("%s %v %s-major: y[%d,%d] = %v, want %v", k.name, shape, major, r, j, got[e], want)
						}
					}
				}
			}
		}
	}
}
