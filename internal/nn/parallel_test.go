package nn

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestParallelForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		for _, n := range []int{0, 1, 3, 100} {
			hits := make([]atomic.Int32, n)
			ParallelFor(n, workers, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestParallelForMatchesSerial(t *testing.T) {
	const n = 257
	want := make([]float64, n)
	ParallelFor(n, 1, func(i int) { want[i] = float64(i) * 1.5 })
	got := make([]float64, n)
	ParallelFor(n, 8, func(i int) { got[i] = float64(i) * 1.5 })
	for i := range want {
		if want[i] != got[i] { // bit-identity is the property under test
			t.Fatalf("index %d: serial %v parallel %v", i, want[i], got[i])
		}
	}
}

// goroutineID is the number runtime.Stack prints for the calling
// goroutine ("goroutine 7 [running]:").
func goroutineID(t *testing.T) uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	f := bytes.Fields(buf)
	if len(f) < 2 {
		t.Fatalf("runtime.Stack header %q", buf)
	}
	id, err := strconv.ParseUint(string(f[1]), 10, 64)
	if err != nil {
		t.Fatalf("runtime.Stack header %q: %v", buf, err)
	}
	return id
}

// TestParallelForWorkerRunsWorkerZeroInline: every index runs once, on a
// worker in [0, Workers(n, workers)); worker 0 is the calling goroutine
// and every other worker one goroutine of its own, so per-worker state
// is never shared.
func TestParallelForWorkerRunsWorkerZeroInline(t *testing.T) {
	caller := goroutineID(t)
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{1, 2, 5, 100} {
			p := Workers(n, workers)
			hits := make([]atomic.Int32, n)
			var mu sync.Mutex
			owner := map[int]uint64{}
			ParallelForWorker(n, workers, func(w, i int) {
				hits[i].Add(1)
				if w < 0 || w >= p {
					t.Errorf("workers=%d n=%d: item %d on worker %d", workers, n, i, w)
					return
				}
				id := goroutineID(t)
				if (w == 0) != (id == caller) {
					t.Errorf("workers=%d n=%d: worker %d ran on goroutine %d, the caller is %d", workers, n, w, id, caller)
				}
				mu.Lock()
				defer mu.Unlock()
				if prev, ok := owner[w]; ok && prev != id {
					t.Errorf("workers=%d n=%d: worker %d ran on goroutines %d and %d", workers, n, w, prev, id)
				}
				owner[w] = id
			})
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

// TestParallelForWorkerPanicWaitsForWorkers: a panic on worker 0 — the
// caller's goroutine — reaches the caller only after the other workers
// have run every item left, so no fn still runs once it is recovered.
func TestParallelForWorkerPanicWaitsForWorkers(t *testing.T) {
	const n, workers = 12, 3
	var done atomic.Int32
	started := make(chan struct{})
	func() {
		defer func() {
			if r := recover(); r != "worker 0" {
				t.Fatalf("recovered %v, want worker 0's panic", r)
			}
		}()
		ParallelForWorker(n, workers, func(w, i int) {
			if w == 0 {
				close(started)
				panic("worker 0")
			}
			<-started
			time.Sleep(time.Millisecond)
			done.Add(1)
		})
	}()
	if got := done.Load(); got != n-1 {
		t.Fatalf("%d items done when the panic reached the caller, want %d", got, n-1)
	}
}
