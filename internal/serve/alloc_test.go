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
	"autoview/internal/core"
	"autoview/internal/featenc"
	"autoview/internal/obs"
	"autoview/internal/plan"
	"autoview/internal/testutil"
	"autoview/internal/widedeep"
)

// smallGen is one generation over a small standalone W-D model, plus
// one real feature set, bypassing the full server bootstrap so the
// inference-slot allocation measurement stays fast and deterministic.
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
// /v1/estimate request: body read, zero-copy decode, text-cache hits,
// estimate-cache hits and the reply's bytes must run out of pooled
// scratch, leaving the Content-Type header the one allocation; a
// text-cache hit alone allocates nothing. The request goes through the
// mounted handler (the mux and the endpoint wrapper's span), with the
// obs registry disabled and enabled, as viewserverd runs it: resolved
// spans allocate nothing either way. The miss path's budget is pinned
// separately by TestEstimateMissPathAllocs.
func TestEstimateWarmAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops random Put items under -race; allocation counts need the plain build")
	}
	wasEnabled := obs.Enabled()
	t.Cleanup(func() { obs.Default.SetEnabled(wasEnabled) })
	s, err := New(serveWK(), serveCoreCfgPar(1), Config{})
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
	var texts []string
	for i := 0; i < 4; i++ {
		pairs = append(pairs, estimatePair{Query: w.Queries[i].SQL, View: vs.Views[i%len(vs.Views)].SQL})
		texts = append(texts, pairs[i].Query, pairs[i].View)
	}
	body, err := json.Marshal(estimateRequest{Pairs: pairs})
	if err != nil {
		t.Fatal(err)
	}

	h := s.Handler()
	req := httptest.NewRequest(http.MethodPost, "/v1/estimate", nil)
	rb := &replayBody{Reader: bytes.NewReader(nil)}
	req.Body = rb
	dw := &discardWriter{h: make(http.Header)}
	cycle := func() {
		rb.Reset(body)
		dw.status = 0
		h.ServeHTTP(dw, req)
		if dw.status != http.StatusOK {
			t.Fatalf("estimate status %d", dw.status)
		}
	}
	cycle()                       // populate the estimate cache and pool high-water marks
	warmTexts(t, s, texts, cycle) // admit every text to the text cache
	sql := []byte(pairs[0].Query)
	if a := testing.AllocsPerRun(100, func() { _, _, _ = s.fingerprint(sql) }); a != 0 {
		t.Fatalf("a text-cache hit = %v allocs, want 0", a)
	}

	// Pinned at the measured value: the Content-Type header's value
	// slice. The PR acceptance ceiling of the first cached handler (<=
	// 1/10th of the 1405 allocs/op cold baseline) was 140.
	const warmBudget = 1
	for _, on := range []bool{false, true} {
		obs.Default.SetEnabled(on)
		cycle() // the first enabled run registers the spans' histograms
		allocs := testing.AllocsPerRun(100, cycle)
		if allocs > warmBudget {
			t.Errorf("warm /v1/estimate, obs enabled=%v: %v allocs/op, want <= %d", on, allocs, warmBudget)
		}
		t.Logf("warm /v1/estimate, obs enabled=%v: %v allocs/op over %d pairs", on, allocs, len(pairs))
	}
}

// TestEstimateMissPathAllocs pins the allocation cost model of an
// estimate whose pairs miss the estimate cache: zero allocations per
// pair, and a small constant per PredictBatch for the slot wait (its
// timeout) and the batch's result slice — the model's pooled inference
// arenas are reused across batches, so a 32x larger batch must not cost
// a single extra allocation. The whole handler is held to the same
// per-pair rule, and to a per-request budget, over pairs whose texts hit
// the text cache and whose plans hit the plan cache: the advise_mixed
// reader's path.
func TestEstimateMissPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops random Put items under -race; allocation counts need the plain build")
	}
	// Pin the obs registry off: other tests in this package mount the
	// obs endpoint (which enables span timing globally), and the spans
	// PredictBatch starts by name (wd.infer.batch) allocate when enabled — a
	// constant per batch, but pinned off here so the measured numbers are
	// stable under any test ordering.
	if obs.Enabled() {
		obs.Disable()
		t.Cleanup(obs.Enable)
	}
	const runs = 50

	// The inference slot and PredictBatch alone, on a small model.
	g, f := smallGen()
	s := &Server{cfg: Config{}.withDefaults(), adv: &core.Advisor{Cfg: serveCoreCfgPar(1)}, infer: make(chan struct{}, 1)}
	req := httptest.NewRequest(http.MethodPost, "/v1/estimate", nil)
	dw := &discardWriter{h: make(http.Header)}
	predict := func(fs []featenc.Features, out []float64) {
		if !s.predict(dw, req, g, fs, out) {
			t.Fatalf("predict answered %d", dw.status)
		}
	}
	small := []featenc.Features{f}
	large := make([]featenc.Features, 32)
	for i := range large {
		large[i] = f
	}
	outSmall, outLarge := make([]float64, len(small)), make([]float64, len(large))
	// Warm the model's arena pool to its high-water mark first. A batch
	// of 32 pairs must then allocate exactly what a batch of one does,
	// summed over the runs: no pair allocates, not even now and then.
	predict(large, outLarge)
	predict(small, outSmall)
	aSmall := testutil.Mallocs(runs, func() { predict(small, outSmall) })
	aLarge := testutil.Mallocs(runs, func() { predict(large, outLarge) })
	if aLarge != aSmall {
		t.Fatalf("PredictBatch in the slot allocates per pair: %d objects over %d batches of 32, %d over batches of 1", aLarge, runs, aSmall)
	}
	const maxPerBatch = 24
	if aSmall > maxPerBatch*runs {
		t.Fatalf("per-batch constant = %d allocs over %d batches, want <= %d each", aSmall, runs, maxPerBatch)
	}

	// The whole handler on a generation that caches no estimates, so
	// every pair runs the miss path: plan-cache hits, extraction, the slot
	// and PredictBatch.
	srv, err := New(serveWK(), serveCoreCfgPar(1), Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		if err := srv.Close(context.Background()); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	uncached := *srv.gen.Load()
	uncached.est = nil
	srv.gen.Store(&uncached)
	vs := uncached.views
	if vs == nil || len(vs.Views) == 0 {
		t.Fatal("no bootstrap views")
	}
	w := serveWK()
	body := func(n int) []byte {
		var pairs []estimatePair
		for i := 0; i < n; i++ {
			pairs = append(pairs, estimatePair{Query: w.Queries[i%len(w.Queries)].SQL, View: vs.Views[i%len(vs.Views)].SQL})
		}
		raw, err := json.Marshal(estimateRequest{Pairs: pairs})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	one, many := body(1), body(len(large))
	rb := &replayBody{Reader: bytes.NewReader(nil)}
	req.Body = rb
	handle := func(b []byte) {
		rb.Reset(b)
		dw.status = 0
		srv.handleEstimate(dw, req)
		if dw.status != http.StatusOK {
			t.Fatalf("estimate status %d", dw.status)
		}
	}
	handle(many) // populate the plan cache and pool high-water marks
	var texts []string
	for i := 0; i < len(large); i++ {
		texts = append(texts, w.Queries[i%len(w.Queries)].SQL, vs.Views[i%len(vs.Views)].SQL)
	}
	warmTexts(t, srv, texts, func() { handle(many) }) // admit every text to the text cache
	handle(one)
	textHits, planHits := obsTextCacheHit.Value(), obsPlanCacheHit.Value()
	hSmall := testutil.Mallocs(runs, func() { handle(one) })
	hLarge := testutil.Mallocs(runs, func() { handle(many) })
	// Two texts a pair, over Mallocs' uncounted call and its runs.
	probes := int64(2 * (runs + 1) * (1 + len(large)))
	if got := obsTextCacheHit.Value() - textHits; got != probes {
		t.Fatalf("%d text-cache hits over %d texts sent", got, probes)
	}
	if got := obsPlanCacheHit.Value() - planHits; got != probes {
		t.Fatalf("%d plan-cache hits over %d texts sent", got, probes)
	}
	if hLarge != hSmall {
		t.Fatalf("the miss path allocates per pair: %d objects over %d requests of %d pairs, %d over requests of 1", hLarge, runs, len(large), hSmall)
	}
	// The advise_mixed reader's path, pinned with headroom over the
	// measured 14 allocations a request.
	const planHitBudget = 18
	if hSmall > planHitBudget*runs {
		t.Fatalf("plan-hit /v1/estimate = %d allocs over %d requests, want <= %d each", hSmall, runs, planHitBudget)
	}
	t.Logf("slot + PredictBatch: %d allocs per %d batches; miss-path handler: %d allocs per %d requests", aSmall, runs, hSmall, runs)
}
