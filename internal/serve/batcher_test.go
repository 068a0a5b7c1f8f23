package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"autoview/internal/featenc"
	"autoview/internal/obs"
	"autoview/internal/widedeep"
)

func onePairRequest() *estRequest {
	return &estRequest{
		fs:   make([]featenc.Features, 1),
		out:  make([]float64, 1),
		done: make(chan struct{}),
	}
}

// gatedBatcher builds a batcher whose dispatcher blocks inside run until
// the returned gate is closed — the deterministic way to hold work in
// the queue while the test probes shedding and draining.
func gatedBatcher(queueDepth int) (*batcher, chan struct{}) {
	gate := make(chan struct{})
	b := newBatcher(
		Config{MaxBatch: 1, QueueDepth: queueDepth},
		func() (*widedeep.Model, float64) {
			<-gate
			return nil, 1
		})
	return b, gate
}

// firstBatchGatedBatcher builds a batcher (MaxBatch and QueueDepth 8)
// whose first micro-batch closes entered and then blocks inside run
// until gate is closed; later batches run straight through.
func firstBatchGatedBatcher() (b *batcher, gate, entered chan struct{}) {
	gate, entered = make(chan struct{}), make(chan struct{})
	first := true // only the dispatcher goroutine touches it
	b = newBatcher(Config{MaxBatch: 8, QueueDepth: 8},
		func() (*widedeep.Model, float64) {
			if first {
				first = false
				close(entered)
				<-gate
			}
			return nil, 1
		})
	return b, gate, entered
}

// waitQueueEmpty blocks until the dispatcher has pulled everything off
// the queue (and is therefore parked inside run, on the gate).
func waitQueueEmpty(t *testing.T, b *batcher) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(b.queue) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("dispatcher never drained the queue")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatcherShedsWhenFull drives the bounded queue to capacity and
// checks the overflow submit is rejected, not blocked — and that every
// accepted request still completes.
func TestBatcherShedsWhenFull(t *testing.T) {
	b, gate := gatedBatcher(1)
	r1, r2, r3 := onePairRequest(), onePairRequest(), onePairRequest()

	if err := b.submit(r1); err != nil {
		t.Fatalf("submit r1: %v", err)
	}
	waitQueueEmpty(t, b) // r1 is now held inside run; the queue is free
	if err := b.submit(r2); err != nil {
		t.Fatalf("submit r2: %v", err)
	}
	if err := b.submit(r3); !errors.Is(err, errQueueFull) {
		t.Fatalf("submit r3 = %v, want errQueueFull", err)
	}

	close(gate)
	for _, r := range []*estRequest{r1, r2} {
		select {
		case <-r.done:
			if !errors.Is(r.err, errNoModel) {
				t.Fatalf("request err = %v, want errNoModel (gated model func returns nil)", r.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("accepted request never completed")
		}
	}
	if err := b.close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestBatcherDrainsOnClose closes the batcher while work is queued and
// in flight: close must reject new submits immediately but wait for
// every accepted request to complete before returning.
func TestBatcherDrainsOnClose(t *testing.T) {
	b, gate := gatedBatcher(4)
	r1, r2 := onePairRequest(), onePairRequest()
	if err := b.submit(r1); err != nil {
		t.Fatalf("submit r1: %v", err)
	}
	if err := b.submit(r2); err != nil {
		t.Fatalf("submit r2: %v", err)
	}

	closed := make(chan error, 1)
	go func() {
		closed <- b.close(context.Background())
	}()

	// close is now blocked on the gated dispatcher; new work must be
	// turned away while the old work is still guaranteed to finish.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := b.submit(onePairRequest()); errors.Is(err, errShuttingDown) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("submit never started returning errShuttingDown")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-closed:
		t.Fatal("close returned before the queued work drained")
	default:
	}

	close(gate)
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}
	for _, r := range []*estRequest{r1, r2} {
		select {
		case <-r.done:
		default:
			t.Fatal("close returned with an accepted request incomplete")
		}
	}
}

// TestBatcherCloseHonorsContext: a close whose drain cannot finish must
// give up when its context expires (and still succeed later).
func TestBatcherCloseHonorsContext(t *testing.T) {
	b, gate := gatedBatcher(4)
	if err := b.submit(onePairRequest()); err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitQueueEmpty(t, b)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := b.close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("close = %v, want DeadlineExceeded while gated", err)
	}
	close(gate)
	if err := b.close(context.Background()); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestBatcherCoalescesQueuedWithoutWaiting pins the dispatcher's only
// coalescing rule: it takes what is already queued (up to MaxBatch) and
// runs — requests share a batch because they queued behind a running
// one, never because the dispatcher waited for them.
func TestBatcherCoalescesQueuedWithoutWaiting(t *testing.T) {
	b, gate, entered := firstBatchGatedBatcher()
	await := func(r *estRequest) {
		t.Helper()
		select {
		case <-r.done:
		case <-time.After(5 * time.Second):
			t.Fatal("request never completed")
		}
	}

	held := onePairRequest()
	if err := b.submit(held); err != nil {
		t.Fatalf("submit: %v", err)
	}
	// obsBatches ticks on entry to run, so once the held batch is at the
	// gate the counter already includes it.
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first request never reached the dispatcher")
	}
	before := obsBatches.Value()
	queued := []*estRequest{onePairRequest(), onePairRequest(), onePairRequest()}
	for _, r := range queued {
		if err := b.submit(r); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	close(gate)
	await(held)
	for _, r := range queued {
		await(r)
	}
	if got := obsBatches.Value() - before; got != 1 {
		t.Fatalf("three queued requests under MaxBatch ran as %d batches, want 1", got)
	}

	// A lone request on an idle batcher, far under MaxBatch, runs at
	// once: there is nothing it could be waiting for.
	before = obsBatches.Value()
	lone := onePairRequest()
	if err := b.submit(lone); err != nil {
		t.Fatalf("submit: %v", err)
	}
	await(lone)
	if got := obsBatches.Value() - before; got != 1 {
		t.Fatalf("lone request ran as %d batches, want 1", got)
	}
	if err := b.close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestBatcherRecordsQueueWait: serve.batch.wait.seconds is submit to
// the start of the micro-batch that ran the request, so a request
// queued behind a running batch records at least what that batch had
// left to run — here, the time the test holds the gate shut — and a
// request that finds the dispatcher idle records next to nothing.
func TestBatcherRecordsQueueWait(t *testing.T) {
	if !obs.Enabled() {
		obs.Enable()
		t.Cleanup(obs.Disable)
	}
	wait := obs.Default.Histogram("serve.batch.wait.seconds", "")
	b, gate, entered := firstBatchGatedBatcher()
	held := onePairRequest()
	if err := b.submit(held); err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-entered // the held batch is running: its own (idle-dispatcher) wait is recorded
	count, sum := wait.Count(), wait.Sum()
	if count == 0 || sum > 1 {
		t.Fatalf("a lone request on an idle dispatcher recorded %d waits totalling %v s", count, sum)
	}
	queued := []*estRequest{onePairRequest(), onePairRequest()}
	for _, r := range queued {
		if err := b.submit(r); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	const remaining = 30 * time.Millisecond
	time.Sleep(remaining)
	close(gate)
	for _, r := range append(queued, held) {
		select {
		case <-r.done:
		case <-time.After(5 * time.Second):
			t.Fatal("request never completed")
		}
	}
	if n := wait.Count() - count; n != int64(len(queued)) {
		t.Fatalf("%d waits recorded for %d queued requests", n, len(queued))
	}
	if got, floor := wait.Sum()-sum, float64(len(queued))*remaining.Seconds(); got < floor {
		t.Fatalf("%d requests queued behind a batch with %v left recorded %v s of wait in all, want >= %v", len(queued), remaining, got, floor)
	}
	if err := b.close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// gateServerModel wraps the server's model getter so the next micro-batch
// signals entered and then blocks until the returned gate closes.
// Installing the wrapper before any estimate traffic is sent gives the
// dispatcher's read a happens-before edge through the queue channel.
func gateServerModel(s *Server) (gate, entered chan struct{}) {
	gate = make(chan struct{})
	entered = make(chan struct{}, 1)
	orig := s.batcher.model
	s.batcher.model = func() (*widedeep.Model, float64) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
		return orig()
	}
	return gate, entered
}

// TestServeEstimateTimeout holds a micro-batch past the request timeout
// and expects a structured 504.
func TestServeEstimateTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{Parallelism: 1, RequestTimeout: 50 * time.Millisecond})
	gate, _ := gateServerModel(s)
	defer close(gate)

	w := serveWK()
	resp, body := postJSON(t, ts.URL+"/v1/estimate",
		estimateRequest{Pairs: []estimatePair{{Query: w.Queries[0].SQL, View: w.Queries[1].SQL}}})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var envelope errorResponse
	if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error.Code != "timeout" {
		t.Fatalf("timeout envelope %s (err %v)", body, err)
	}
}

// TestServeGracefulDrain closes the server while an estimate is held in
// flight: the in-flight request must still get its 200 with results,
// while new traffic is refused with a structured 503.
func TestServeGracefulDrain(t *testing.T) {
	w := serveWK()
	s, err := New(w, serveCoreCfg(), Config{Parallelism: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	gate, entered := gateServerModel(s)

	inflight := make(chan error, 1)
	go func() {
		raw, _ := json.Marshal(estimateRequest{Pairs: []estimatePair{{Query: w.Queries[0].SQL, View: w.Queries[1].SQL}}})
		resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", bytes.NewReader(raw))
		if err != nil {
			inflight <- err
			return
		}
		defer resp.Body.Close()
		var out estimateResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			inflight <- err
			return
		}
		if resp.StatusCode != http.StatusOK || len(out.Estimates) != 1 {
			inflight <- errors.New("in-flight estimate did not complete with results during drain")
			return
		}
		inflight <- nil
	}()
	select {
	case <-entered: // the estimate's micro-batch is parked on the gate
	case <-time.After(10 * time.Second):
		t.Fatal("estimate never reached the dispatcher")
	}

	closed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		closed <- s.Close(ctx)
	}()

	// New traffic is shed with 503 while the drain is in progress.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, body := postJSON(t, ts.URL+"/v1/queries", ingestRequest{Queries: []string{w.Queries[0].SQL}})
		if resp.StatusCode == http.StatusServiceUnavailable {
			var envelope errorResponse
			if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error.Code != "shutting_down" {
				t.Fatalf("drain envelope %s (err %v)", body, err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never started refusing traffic during drain")
		}
		time.Sleep(time.Millisecond)
	}

	close(gate)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight estimate: %v", err)
	}
}
