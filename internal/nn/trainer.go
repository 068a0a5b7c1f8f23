package nn

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"autoview/internal/obs"
)

// Trainer metrics: samples and steps always count; the nn.train.step and
// nn.train.reduce spans (and the samples/s gauge) are recorded only when
// the obs registry is enabled, so the hot loop pays no clock reads
// otherwise.
var (
	obsTrainSamples = obs.Default.Counter("nn.train.samples", "training samples processed (forward+backward)")
	obsTrainSteps   = obs.Default.Counter("nn.train.steps", "mini-batch gradient steps")
	obsTrainRate    = obs.Default.Gauge("nn.train.samples_per_sec", "throughput of the last mini-batch step")
)

// SampleFunc computes forward+backward for sample i of the current
// mini-batch, accumulating parameter gradients into the replica it is
// bound to, and returns the sample's (un-averaged) loss contribution.
// The index i addresses the batch the caller staged before Step; the
// function must not touch the canonical parameters' gradients.
type SampleFunc func(i int) float64

// BindFunc builds one worker-local model replica: a parameter list whose
// entries share weight (Val) storage with the trainer's canonical
// parameters — same order, same shapes — but own private gradient
// buffers, plus the per-sample forward+backward runner bound to those
// replica parameters. Layers expose ShareWeights constructors for this;
// BindFunc is called once per worker at trainer construction.
type BindFunc func() (replica []*Param, run SampleFunc)

// Trainer shards mini-batch gradient computation across workers. Each
// sample's gradient is computed into a zeroed worker-private buffer and
// folded into the canonical gradients strictly in sample order, so the
// result is bit-for-bit identical for every Parallelism setting: the
// floating-point operation sequence per sample is fixed (forward reads
// only the shared weights, which are frozen during Step), and the fold
// order is fixed by sample index, not by worker scheduling.
//
// Parallelism 1 therefore reproduces the multi-worker result exactly and
// runs inline without spawning goroutines.
type Trainer struct {
	params   []*Param
	replicas []trainReplica // one per worker

	// free holds the indices of the replicas no sample occupies; its
	// capacity is len(replicas), so a send never blocks. Every replica
	// is back in it when Step returns.
	free chan int

	// mu guards the fold state of the Step in flight. ready is a ring
	// over sample indices: ready[i%len(ready)] is 1 + the replica that
	// holds finished sample i, or 0. A sample holds a replica from claim
	// to fold, so at most len(replicas) consecutive indices are pending
	// and no two of them share a slot.
	mu        sync.Mutex
	ready     []int
	head      int // next sample index to fold
	total     float64
	timing    bool
	reduceDur time.Duration
}

type trainReplica struct {
	params []*Param
	run    SampleFunc
	loss   float64
}

// NewTrainer builds a trainer over the canonical parameters. parallelism
// ≤ 0 selects runtime.NumCPU(). bind is invoked once per worker and must
// return replicas aligned index-for-index with params.
func NewTrainer(params []*Param, parallelism int, bind BindFunc) *Trainer {
	if parallelism <= 0 {
		parallelism = runtime.NumCPU()
	}
	t := &Trainer{
		params: params,
		free:   make(chan int, parallelism),
		ready:  make([]int, parallelism),
	}
	for w := 0; w < parallelism; w++ {
		replica, run := bind()
		if len(replica) != len(params) {
			panic(fmt.Sprintf("nn: trainer replica has %d params, want %d", len(replica), len(params)))
		}
		for i, p := range replica {
			if p.Size() != params[i].Size() {
				panic(fmt.Sprintf("nn: trainer replica param %d (%s) has size %d, want %d",
					i, p, p.Size(), params[i].Size()))
			}
		}
		t.replicas = append(t.replicas, trainReplica{params: replica, run: run})
		t.free <- w
	}
	return t
}

// Step zeroes the canonical gradients, computes the gradient of every
// sample in the batch of size n, folds them in sample order, and
// returns the summed per-sample losses (also accumulated in sample
// order). The caller applies the optimizer afterwards.
func (t *Trainer) Step(n int) float64 {
	t.timing = obs.Enabled()
	var stepStart time.Time
	if t.timing {
		stepStart = time.Now()
	}
	ZeroGrads(t.params)
	total := t.fold(n)
	var stepDur time.Duration
	if t.timing {
		stepDur = time.Since(stepStart)
	}
	ObserveStep(n, stepDur, t.reduceDur)
	return total
}

// ObserveStep records one mini-batch gradient step over n samples: it
// counts the step and its samples and, when the step was timed (step >
// 0: the obs registry was enabled when it began), records its wall time
// under nn.train.step, the part of it spent in ordered gradient
// reductions under nn.train.reduce, and the samples/s gauge.
// Trainer.Step calls it; so does a batched step that runs no Trainer
// (W-D's pass B).
func ObserveStep(n int, step, reduce time.Duration) {
	obsTrainSamples.Add(int64(n))
	obsTrainSteps.Inc()
	if step <= 0 {
		return
	}
	obs.Default.ObserveSpan("nn.train.step", step)
	obs.Default.ObserveSpan("nn.train.reduce", reduce)
	obsTrainRate.Set(float64(n) / step.Seconds())
}

// fold runs items 0..n-1 on the replicas and adds their gradients to
// the canonical ones strictly in index order.
func (t *Trainer) fold(n int) float64 {
	t.head, t.total, t.reduceDur = 0, 0, 0
	if p := len(t.replicas); p == 1 || n <= 1 {
		for i := 0; i < n; i++ {
			r := <-t.free
			t.runSample(r, i)
			t.finish(r, i)
		}
		return t.total
	}
	// One goroutine per worker for the whole batch, no barrier
	// between samples: a worker stalls only while every replica is
	// parked behind an unfinished earlier sample.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(len(t.replicas), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Replica first, sample second: a worker that
				// claimed the head-of-line sample and then waited
				// for a replica would wait forever once every
				// replica is parked behind that sample.
				r := <-t.free
				i := int(next.Add(1)) - 1
				if i >= n {
					t.free <- r
					return
				}
				t.runSample(r, i)
				t.mu.Lock()
				t.finish(r, i)
				t.mu.Unlock()
				// A worker that loops from sample to sample never
				// blocks, so whatever else is runnable — the
				// daemon's request handlers, while it retrains —
				// would wait for the 10 ms preemption tick. Yield
				// once per sample; with nothing else to run this
				// returns at once.
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
	return t.total
}

// runSample computes sample i's loss and gradient into replica r.
func (t *Trainer) runSample(r, i int) {
	rep := &t.replicas[r]
	ZeroGrads(rep.params)
	rep.loss = rep.run(i)
}

// finish marks sample i, computed into replica r, as ready; when i is
// the head of the line it folds i and every consecutive ready sample
// after it into the canonical gradients and the loss total, in sample
// order, and frees their replicas. Workers call it holding mu.
func (t *Trainer) finish(r, i int) {
	t.ready[i%len(t.ready)] = r + 1
	if i != t.head {
		return
	}
	var foldStart time.Time
	if t.timing {
		foldStart = time.Now()
	}
	for {
		slot := &t.ready[t.head%len(t.ready)]
		if *slot == 0 {
			break
		}
		rep := &t.replicas[*slot-1]
		AddGrads(t.params, rep.params)
		t.total += rep.loss
		t.free <- *slot - 1
		*slot = 0
		t.head++
	}
	if t.timing {
		t.reduceDur += time.Since(foldStart)
	}
}
