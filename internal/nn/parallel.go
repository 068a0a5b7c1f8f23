package nn

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ParallelFor runs fn(i) for every i in [0, n) across workers
// goroutines. workers <= 0 selects runtime.NumCPU(); the pool is capped
// at n. Indices are claimed from an atomic counter, so every index runs
// exactly once; fn must confine its writes to index-i-owned state (the
// i-th slot of an output slice), which makes the overall result
// independent of scheduling — the parallel run is bit-identical to the
// serial one. This is the fan-out primitive behind the advisor's pair
// measurement, the W-D batched predict path and the bring-up's table
// builds, parses and subquery decomposition.
func ParallelFor(n, workers int, fn func(i int)) {
	ParallelForWorker(n, workers, func(_, i int) { fn(i) })
}

// Workers resolves the effective worker count ParallelFor/
// ParallelForWorker will use for n items: workers <= 0 selects
// runtime.NumCPU(), and the pool is capped at n. Callers that stage
// per-worker state (e.g. one inference Arena per worker) size it with
// this.
func Workers(n, workers int) int {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	return workers
}

// ParallelForWorker is ParallelFor with the worker index exposed:
// fn(w, i) runs with w in [0, Workers(n, workers)), and each w is owned
// by exactly one goroutine at a time, so fn may freely use per-worker
// scratch state (an inference Arena, an accumulator slot) indexed by w.
// Worker 0 is the calling goroutine, whose stack has already grown to
// fit fn; the others are started per call, and ParallelForWorker
// returns, or passes on a panic of worker 0, only once they are done.
// The same determinism contract applies: writes must be confined to
// index-i-owned state; per-worker scratch must not leak into results in
// a scheduling-dependent way.
func ParallelForWorker(n, workers int, fn func(w, i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(n, workers)
	var next atomic.Int64
	run := func(w int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(w, i)
		}
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			run(w)
		}(w)
	}
	run(0)
}
