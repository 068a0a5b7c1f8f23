package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"autoview/internal/catalog"
	"autoview/internal/featenc"
	"autoview/internal/obs"
	"autoview/internal/plan"
	"autoview/internal/widedeep"
)

// smallGen is one generation over a small standalone W-D model, plus
// one real feature set, bypassing the full server bootstrap so the
// batcher tests and allocation measurements stay fast and deterministic.
var smallGen = sync.OnceValues(func() (*generation, featenc.Features) {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	cat := catalog.New()
	must(cat.Add(&catalog.Table{
		Name: "user_memo",
		Columns: []catalog.Column{
			{Name: "user_id", Type: catalog.TypeInt, Distinct: 40},
			{Name: "memo_type", Type: catalog.TypeString, Distinct: 4},
			{Name: "dt", Type: catalog.TypeString, Distinct: 5},
		},
		Stats: catalog.TableStats{Rows: 400, Bytes: 12800},
	}))
	sql := `select user_id from ( select user_id, dt from user_memo where memo_type = 'pen' ) t1 where dt = '10'`
	q, err := plan.Parse(sql, cat)
	must(err)
	subs := plan.ExtractSubqueries(q)
	if len(subs) == 0 {
		panic("no subqueries extracted")
	}
	f := featenc.Extract(q, subs[0].Root, cat)
	vocab := featenc.NewVocab(cat, nil)
	m := widedeep.New(vocab, widedeep.Config{
		Encoder:    featenc.Config{EmbedDim: 4, Hidden: 4},
		WideDim:    4,
		DeepHidden: 6,
		RegHidden:  4,
	}, rand.New(rand.NewSource(3)))
	m.Norm = featenc.FitNormalizer([][]float64{f.Numeric})
	return &generation{m: m, scale: 2, version: 1}, f
})

// TestBatcherSteadyStateAllocs pins the micro-batcher's allocation cost
// model: a small per-batch constant (request bookkeeping, result
// slices) and zero per-element allocations — the model's
// pooled inference arenas are reused across successive batches, so a
// 32x larger request must not cost a single extra allocation.
func TestBatcherSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops random Put items under -race; allocation counts need the plain build")
	}
	// Pin the obs registry off: other tests in this package mount the
	// obs endpoint (which enables span timing globally), and an enabled
	// span allocates — a constant per batch, but pinned off here so the
	// measured numbers are stable under any test ordering.
	if obs.Enabled() {
		obs.Disable()
		t.Cleanup(obs.Enable)
	}
	g, f := smallGen()
	b := newBatcher(Config{
		Parallelism: 1,
		MaxBatch:    1,
		QueueDepth:  8,
	})
	defer b.close(context.Background())

	cycle := func(fs []featenc.Features, out []float64) {
		req := &estRequest{gen: g, fs: fs, out: out, done: make(chan struct{})}
		if err := b.submit(req); err != nil {
			t.Fatalf("submit: %v", err)
		}
		<-req.done
	}
	small := []featenc.Features{f}
	large := make([]featenc.Features, 32)
	for i := range large {
		large[i] = f
	}
	outSmall, outLarge := make([]float64, len(small)), make([]float64, len(large))
	// Warm the model's arena pool to its high-water mark first.
	cycle(large, outLarge)

	aSmall := testing.AllocsPerRun(50, func() { cycle(small, outSmall) })
	aLarge := testing.AllocsPerRun(50, func() { cycle(large, outLarge) })
	if perElement := (aLarge - aSmall) / float64(len(large)-len(small)); perElement > 0.1 {
		t.Fatalf("batcher allocates per element: %v allocs (batch 1: %v, batch 32: %v)",
			perElement, aSmall, aLarge)
	}
	const maxPerBatch = 24
	if aSmall > maxPerBatch {
		t.Fatalf("per-batch constant = %v allocs, want <= %d", aSmall, maxPerBatch)
	}
}

// replayBody is a reusable request body: Reset rewinds it to a new
// payload without allocating a fresh reader per request.
type replayBody struct{ *bytes.Reader }

func (replayBody) Close() error { return nil }

// discardWriter is a minimal ResponseWriter so warm-path measurements
// count the handler's allocations, not a recorder's.
type discardWriter struct {
	h      http.Header
	status int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(s int)           { d.status = s }

// TestEstimateWarmAlloc pins the allocation budget of a fully warm
// /v1/estimate request: body read, zero-copy decode, fingerprinting, and
// estimate-cache hits must run out of pooled scratch, leaving only the
// response-encoding constant. The cold-path budget is pinned separately
// by TestBatcherSteadyStateAllocs and stays unchanged.
func TestEstimateWarmAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops random Put items under -race; allocation counts need the plain build")
	}
	// Pin the obs registry off (enabled spans allocate; see
	// TestBatcherSteadyStateAllocs).
	if obs.Enabled() {
		obs.Disable()
		t.Cleanup(obs.Enable)
	}
	s, err := New(serveWK(), serveCoreCfg(), Config{Parallelism: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	vs := s.gen.Load().views
	if vs == nil || len(vs.Views) == 0 {
		t.Fatal("no bootstrap views")
	}
	w := serveWK()
	var pairs []estimatePair
	for i := 0; i < 4; i++ {
		pairs = append(pairs, estimatePair{Query: w.Queries[i].SQL, View: vs.Views[i%len(vs.Views)].SQL})
	}
	body, err := json.Marshal(estimateRequest{Pairs: pairs})
	if err != nil {
		t.Fatal(err)
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/estimate", nil)
	rb := &replayBody{Reader: bytes.NewReader(nil)}
	req.Body = rb
	dw := &discardWriter{h: make(http.Header)}
	cycle := func() {
		rb.Reset(body)
		dw.status = 0
		s.handleEstimate(dw, req)
		if dw.status != http.StatusOK {
			t.Fatalf("estimate status %d", dw.status)
		}
	}
	cycle() // populate the estimate cache and pool high-water marks

	allocs := testing.AllocsPerRun(100, cycle)
	// Pinned with headroom over the measured value; the PR acceptance
	// ceiling (≤ 1/10th of the 1405 allocs/op cold baseline) is 140.
	const warmBudget = 40
	if allocs > warmBudget {
		t.Fatalf("warm /v1/estimate = %v allocs/op, want <= %d", allocs, warmBudget)
	}
	t.Logf("warm /v1/estimate: %v allocs/op over %d pairs", allocs, len(pairs))
}
