package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"autoview/internal/obs"
)

// holdSlot takes the server's inference slot, as a running PredictBatch
// would, so the test can park estimate requests behind it; the returned
// func frees it.
func holdSlot(s *Server) (release func()) {
	s.infer <- struct{}{}
	return func() { <-s.infer }
}

// awaitWaiting blocks until n estimate requests are parked on the slot.
func awaitWaiting(t *testing.T, s *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.waiting.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests waiting for the inference slot, want %d", s.waiting.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

type postResult struct {
	status int
	body   []byte
	err    error
}

// postAsync sends body to url from its own goroutine (t.Fatal is not
// allowed there) and delivers the outcome on the returned channel.
func postAsync(url string, body []byte) <-chan postResult {
	done := make(chan postResult, 1)
	go func() {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			done <- postResult{err: err}
			return
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		done <- postResult{status: resp.StatusCode, body: raw, err: err}
	}()
	return done
}

// onePairBody is an estimate body of one (query, view) pair of the test
// workload, distinct per i so each request misses the estimate cache.
func onePairBody(t *testing.T, i int) []byte {
	t.Helper()
	w := serveWK()
	return mustJSON(t, estimateRequest{Pairs: []estimatePair{{Query: w.Queries[i].SQL, View: w.Queries[i+1].SQL}}})
}

func errorCode(t *testing.T, body []byte) string {
	t.Helper()
	var envelope errorResponse
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatalf("error envelope %s: %v", body, err)
	}
	return envelope.Error.Code
}

// TestEstimateShedsPastQueueDepth parks QueueDepth requests behind a
// held slot: the next one is shed with 429 overloaded rather than
// queued, and once the slot frees every parked request answers with the
// bytes a lone request gets.
func TestEstimateShedsPastQueueDepth(t *testing.T) {
	const depth = 3
	s, ts := newTestServer(t, 1, Config{QueueDepth: depth})
	release := holdSlot(s)
	body := onePairBody(t, 0)
	parked := make([]<-chan postResult, depth)
	for i := range parked {
		parked[i] = postAsync(ts.URL+"/v1/estimate", body)
	}
	awaitWaiting(t, s, depth)

	status, shed := postRaw(t, ts.URL+"/v1/estimate", onePairBody(t, 1))
	if status != http.StatusTooManyRequests || errorCode(t, shed) != "overloaded" {
		t.Fatalf("request past QueueDepth waiters: status %d: %s", status, shed)
	}
	var health healthResponse
	getJSON(t, ts.URL+"/v1/healthz", &health)
	if health.QueueDepth != depth {
		t.Fatalf("healthz queue_depth = %d with %d requests parked", health.QueueDepth, depth)
	}

	release()
	var got [][]byte
	for _, done := range parked {
		select {
		case res := <-done:
			if res.err != nil || res.status != http.StatusOK {
				t.Fatalf("parked request: status %d, err %v: %s", res.status, res.err, res.body)
			}
			got = append(got, res.body)
		case <-time.After(10 * time.Second):
			t.Fatal("parked request never answered after the slot freed")
		}
	}
	status, lone := postRaw(t, ts.URL+"/v1/estimate", body)
	if status != http.StatusOK {
		t.Fatalf("lone request: status %d: %s", status, lone)
	}
	for i, b := range got {
		if !bytes.Equal(b, lone) {
			t.Fatalf("parked request %d answered\n%s\na lone request answers\n%s", i, b, lone)
		}
	}
	if n := s.waiting.Load(); n != 0 {
		t.Fatalf("%d requests still counted as waiting", n)
	}
}

// TestEstimateRecordsSlotWait: serve.batch.wait.seconds is a request's
// wait for the inference slot, so a request parked behind a held slot
// records at least how long the slot stayed held, and a request that
// finds the slot free records next to nothing.
func TestEstimateRecordsSlotWait(t *testing.T) {
	if !obs.Enabled() {
		obs.Enable()
		t.Cleanup(obs.Disable)
	}
	wait := obs.Default.Histogram("serve.batch.wait.seconds", "")
	s, ts := newTestServer(t, 1, Config{})

	count, sum := wait.Count(), wait.Sum()
	if status, body := postRaw(t, ts.URL+"/v1/estimate", onePairBody(t, 0)); status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if n, waited := wait.Count()-count, wait.Sum()-sum; n != 1 || waited > 1 {
		t.Fatalf("a lone request on a free slot recorded %d waits totalling %v s", n, waited)
	}

	count, sum = wait.Count(), wait.Sum()
	release := holdSlot(s)
	parked := []<-chan postResult{
		postAsync(ts.URL+"/v1/estimate", onePairBody(t, 1)),
		postAsync(ts.URL+"/v1/estimate", onePairBody(t, 2)),
	}
	awaitWaiting(t, s, int64(len(parked)))
	const held = 30 * time.Millisecond
	time.Sleep(held)
	release()
	for _, done := range parked {
		if res := <-done; res.err != nil || res.status != http.StatusOK {
			t.Fatalf("parked request: status %d, err %v: %s", res.status, res.err, res.body)
		}
	}
	if n := wait.Count() - count; n != int64(len(parked)) {
		t.Fatalf("%d waits recorded for %d parked requests", n, len(parked))
	}
	if got, floor := wait.Sum()-sum, float64(len(parked))*held.Seconds(); got < floor {
		t.Fatalf("%d requests parked behind a slot held %v recorded %v s of wait in all, want >= %v", len(parked), held, got, floor)
	}
}

// TestServeEstimateTimeout holds the inference slot past the request
// timeout and expects a structured 504; the request stops counting as
// waiting when it gives up.
func TestServeEstimateTimeout(t *testing.T) {
	s, ts := newTestServer(t, 1, Config{RequestTimeout: 50 * time.Millisecond})
	release := holdSlot(s)
	defer release()

	status, body := postRaw(t, ts.URL+"/v1/estimate", onePairBody(t, 0))
	if status != http.StatusGatewayTimeout || errorCode(t, body) != "timeout" {
		t.Fatalf("status %d: %s", status, body)
	}
	if n := s.waiting.Load(); n != 0 {
		t.Fatalf("%d requests still counted as waiting after the 504", n)
	}
}

// TestServeGracefulDrain closes the server while an estimate waits for
// the held slot: the in-flight request must still get its 200 with
// results, while new traffic is refused with a structured 503.
func TestServeGracefulDrain(t *testing.T) {
	w := serveWK()
	s, ts := newTestServer(t, 1, Config{})
	release := holdSlot(s)
	inflight := postAsync(ts.URL+"/v1/estimate", onePairBody(t, 0))
	awaitWaiting(t, s, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for path, body := range map[string][]byte{
		"/v1/queries":  mustJSON(t, ingestRequest{Queries: []string{w.Queries[0].SQL}}),
		"/v1/estimate": onePairBody(t, 1),
	} {
		status, reply := postRaw(t, ts.URL+path, body)
		if status != http.StatusServiceUnavailable || errorCode(t, reply) != "shutting_down" {
			t.Fatalf("%s during the drain: status %d: %s", path, status, reply)
		}
	}

	release()
	res := <-inflight
	var out estimateResponse
	if res.err != nil || res.status != http.StatusOK || json.Unmarshal(res.body, &out) != nil || len(out.Estimates) != 1 {
		t.Fatalf("in-flight estimate across Close: status %d, err %v: %s", res.status, res.err, res.body)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
