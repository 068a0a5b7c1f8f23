package rl

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"autoview/internal/nn"
)

// TestRLViewGoldenBits pins what TestRLViewBitIdenticalAcrossParallelism
// cannot: that test compares a build with itself, so a kernel change
// that moved every run's bits the same way would pass it. One RLView
// run on a 24-view instance (three blocks of eight actions per state)
// is hashed — FNV-64a over its utility trace and every fine-tuned
// weight, parameter names included — and must equal the hash the dense
// lane kernel produced before the batched forward learned to skip
// all-+0 blocks. The run's own activations must hold such blocks, or
// the pin would say nothing about skipping them.
func TestRLViewGoldenBits(t *testing.T) {
	const golden = "9c85b74790393f13"
	in := randomInstance(rand.New(rand.NewSource(41)), 30, 24)
	res := RLView(in, Options{
		InitIterations: 5,
		Epochs:         12,
		Rand:           rand.New(rand.NewSource(42)),
	})
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, v := range res.Trace {
		put(v)
	}
	for _, p := range res.Agent.Net.Params() {
		h.Write([]byte(p.Name))
		for _, v := range p.Val {
			put(v)
		}
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != golden {
		t.Errorf("RLView hash %s, want %s", got, golden)
	}
	var states [][][]float64
	for _, e := range res.Agent.Memory() {
		if !e.Terminal {
			states = append(states, e.NextState)
		}
	}
	dead, total := deadBlocks(res.Agent.Net, states)
	t.Logf("%d of %d hidden blocks all +0", dead, total)
	if dead == 0 {
		t.Fatalf("no all-+0 block among %d: the run does not exercise skipping", total)
	}
}

// deadBlocks counts, over every state's actions in blocks of eight, the
// (row, block) pairs of the hidden layers that feed another ReLU layer —
// the blocks a masked forward may skip — whose eight post-ReLU values
// are all +0, and all such pairs. Activations come from the tape
// layers, one action at a time; a state's last partial block counts its
// real actions only.
func deadBlocks(net *nn.MLP, states [][][]float64) (dead, total int) {
	const lanes = 8
	for _, feats := range states {
		acts := feats
		for li, l := range net.Layers[:len(net.Layers)-1] {
			next := make([][]float64, len(acts))
			for j, x := range acts {
				y := make(nn.Vec, l.OutDim())
				l.InferInto(y, x)
				next[j], _ = nn.ReLU(y)
			}
			acts = next
			if li == len(net.Layers)-2 {
				break // feeds the last layer, which has no ReLU
			}
			for lo := 0; lo < len(acts); lo += lanes {
				blk := acts[lo:min(lo+lanes, len(acts))]
				for r := 0; r < l.OutDim(); r++ {
					total++
					live := false
					for _, a := range blk {
						live = live || math.Float64bits(a[r]) != 0
					}
					if !live {
						dead++
					}
				}
			}
		}
	}
	return dead, total
}
