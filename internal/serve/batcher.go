package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"autoview/internal/featenc"
	"autoview/internal/obs"
)

// Micro-batcher metrics: queue pressure in a gauge, work in counters,
// coalescing behaviour in a histogram. The time a request spends in the
// queue is the serve.batch.wait span (histogram
// serve.batch.wait.seconds): submit opens it, run closes it as the
// micro-batch that holds the request starts.
var (
	obsBatches    = obs.Default.Counter("serve.batch.count", "micro-batches run by the inference scheduler")
	obsBatchSize  = obs.Default.Histogram("serve.batch.size", "(query, view) pairs coalesced per micro-batch", 1, 2, 4, 8, 16, 32, 64, 128)
	obsQueueDepth = obs.Default.Gauge("serve.batch.queue", "estimate requests waiting in the micro-batcher queue")
)

// Sentinel errors mapped to HTTP statuses by the handlers.
var (
	errQueueFull    = errors.New("serve: bounded queue full")
	errShuttingDown = errors.New("serve: shutting down")
)

// estRequest is one estimate request's slice of the micro-batch: the
// model generation the handler loaded, the extracted features, a result
// slot per pair, and a completion channel. The batcher owns out until
// done is closed; after that the submitting handler owns it (or nobody
// does, if the handler timed out — the slots are then written but never
// read).
type estRequest struct {
	gen  *model
	fs   []featenc.Features
	out  []float64
	done chan struct{}

	waited func() // ends the request's serve.batch.wait span; set by submit
}

// batcher is the micro-batching inference scheduler: concurrent
// estimate requests queue onto a bounded channel, a single dispatcher
// coalesces whatever is queued — up to cfg.MaxBatch pairs — and each
// micro-batch runs through widedeep.PredictBatch's Parallelism-sized
// worker pool. Per-pair results are bit-identical to sequential
// inference (see PredictBatch), so batching never changes an answer.
// It does change the work: PredictBatch encodes each distinct operator
// of a micro-batch once, so the pairs of a request — and of requests
// coalesced with it — share their scans, filters and joins instead of
// only sharing the fan-out.
// PredictBatch's workers draw their scratch from the model's pooled
// inference arenas, which persist across micro-batches — so after the
// first few requests warm the pool, the per-pair serving cost performs
// zero heap allocations (see TestBatcherSteadyStateAllocs).
//
// The dispatcher never waits for traffic: callers are optimizer threads
// blocked on the reply, so requests coalesce while a batch runs (one
// batch in flight, FIFO), not while a timer does. A lone request runs
// at once; under load the queue is non-empty when the previous batch
// finishes and the next one takes all of it.
type batcher struct {
	parallelism int
	maxBatch    int

	// hold, when set, runs as each micro-batch starts: the seam tests use
	// to keep a batch in flight. Set it before the first submit.
	hold func()

	queue   chan *estRequest
	submits sync.WaitGroup
	closed  atomic.Bool
	done    chan struct{}
}

func newBatcher(cfg Config) *batcher {
	b := &batcher{
		parallelism: cfg.Parallelism,
		maxBatch:    cfg.MaxBatch,
		queue:       make(chan *estRequest, cfg.QueueDepth),
		done:        make(chan struct{}),
	}
	go b.dispatch()
	return b
}

// submit enqueues a request without blocking: a full queue sheds
// (errQueueFull → 429) instead of stalling the caller. The submits
// group guarantees no send can race close(queue) during shutdown.
func (b *batcher) submit(req *estRequest) error {
	b.submits.Add(1)
	defer b.submits.Done()
	if b.closed.Load() {
		return errShuttingDown
	}
	req.waited = obs.StartSpan("serve.batch.wait") // a shed request never waited: its span is dropped
	select {
	case b.queue <- req:
		obsQueueDepth.Set(float64(len(b.queue)))
		return nil
	default:
		return errQueueFull
	}
}

// dispatch is the scheduler loop: block for the first request, take
// whatever else is already queued until the batch is full, run, repeat.
// When the queue is closed it drains every remaining request before
// exiting, so accepted work always completes.
func (b *batcher) dispatch() {
	defer close(b.done)
	for {
		req, ok := <-b.queue
		if !ok {
			return
		}
		batch := []*estRequest{req}
		total := len(req.fs)
	collect:
		for total < b.maxBatch {
			select {
			case next, more := <-b.queue:
				if !more {
					break collect
				}
				batch = append(batch, next)
				total += len(next.fs)
			default:
				break collect
			}
		}
		obsQueueDepth.Set(float64(len(b.queue)))
		b.run(batch, total)
	}
}

// run executes one micro-batch and completes its requests. Each request
// is answered by the generation it carries: one PredictBatch per
// distinct generation in the batch, which is almost always one (two only
// when a swap lands between two coalesced requests' loads).
func (b *batcher) run(batch []*estRequest, total int) {
	for _, r := range batch {
		r.waited()
	}
	defer obs.StartSpan("serve.batch")()
	obsBatches.Inc()
	obsBatchSize.Observe(float64(total))
	if b.hold != nil {
		b.hold()
	}
	flat := make([]featenc.Features, 0, total)
	for i, r := range batch {
		if ranEarlier(batch[:i], r.gen) {
			continue
		}
		flat = flat[:0]
		for _, o := range batch[i:] {
			if o.gen == r.gen {
				flat = append(flat, o.fs...)
			}
		}
		preds := r.gen.m.PredictBatch(flat, b.parallelism)
		k := 0
		for _, o := range batch[i:] {
			if o.gen != r.gen {
				continue
			}
			for j := range o.fs {
				// The same scale division the pipeline's benefit
				// estimator applies to Predict, so batched results stay
				// bit-identical to sequential serving.
				o.out[j] = preds[k] / r.gen.scale
				k++
			}
			close(o.done)
		}
	}
	obs.Debug("serve.batch", "requests", len(batch), "pairs", total)
}

// ranEarlier reports whether g already ran: some request of earlier
// carries it.
func ranEarlier(earlier []*estRequest, g *model) bool {
	for _, r := range earlier {
		if r.gen == g {
			return true
		}
	}
	return false
}

// close stops intake, waits for queued work to drain (bounded by ctx),
// and returns. Idempotent.
func (b *batcher) close(ctx context.Context) error {
	if !b.closed.Swap(true) {
		b.submits.Wait()
		close(b.queue)
	}
	select {
	case <-b.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
