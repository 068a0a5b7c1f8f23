package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"autoview/internal/catalog"
	"autoview/internal/featenc"
	"autoview/internal/obs"
	"autoview/internal/plan"
	"autoview/internal/sqlparse"
	"autoview/internal/widedeep"
	"autoview/internal/workload"
)

// postRaw sends one prebuilt body and returns the status plus the raw
// response bytes (the property under test is byte identity, so no
// decoding happens here).
func postRaw(t testing.TB, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, raw
}

// bumpLiterals rewrites every literal in sql (numbers get a digit
// appended, strings a suffix) so the variant keeps the query's shape
// but not its literals, and so not its exact fingerprint. Returns ""
// when sql has no literals or the variant no longer parses.
func bumpLiterals(t *testing.T, sql, suffix string, cat *catalog.Catalog) string {
	t.Helper()
	toks, err := sqlparse.Lex(sql)
	if err != nil {
		t.Fatalf("lex %q: %v", sql, err)
	}
	var b strings.Builder
	last := 0
	changed := false
	for _, tok := range toks {
		switch tok.Kind {
		case sqlparse.TokenNumber:
			end := tok.Pos + len(tok.Text)
			b.WriteString(sql[last:tok.Pos])
			b.WriteString(" " + tok.Text + suffixDigits(suffix) + " ")
			last = end
			changed = true
		case sqlparse.TokenString:
			// Rescan for the closing quote: tok.Text is unescaped, so
			// its length may not match the source span.
			end := tok.Pos + 1
			for sql[end] != '\'' || (end+1 < len(sql) && sql[end+1] == '\'') {
				if sql[end] == '\'' {
					end++ // first half of an escaped ''
				}
				end++
			}
			end++
			b.WriteString(sql[last:tok.Pos])
			b.WriteString(" '" + strings.ReplaceAll(tok.Text, "'", "''") + suffix + "' ")
			last = end
			changed = true
		}
	}
	if !changed {
		return ""
	}
	b.WriteString(sql[last:])
	variant := b.String()
	if _, err := plan.Parse(variant, cat); err != nil {
		return ""
	}
	return variant
}

func suffixDigits(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] >= '0' && s[i] <= '9' {
			b.WriteByte(s[i])
		}
	}
	if b.Len() == 0 {
		return "9"
	}
	return b.String()
}

// propertyBodies builds the seeded request corpus: every workload query
// plus literal-bumped variants (~100+ distinct queries), paired with the
// advertised views and chunked into estimate bodies.
func propertyBodies(t *testing.T, w *workload.Workload, vs ViewSet) [][]byte {
	t.Helper()
	if len(vs.Views) == 0 {
		t.Fatal("no bootstrap views to pair with")
	}
	var queries []string
	for _, q := range w.Queries {
		queries = append(queries, q.SQL)
		if v := bumpLiterals(t, q.SQL, "7", w.Cat); v != "" {
			queries = append(queries, v)
		}
	}
	if len(queries) < 100 {
		t.Fatalf("property corpus too small: %d queries, want >= 100", len(queries))
	}
	var bodies [][]byte
	const perBody = 8
	for at := 0; at < len(queries); at += perBody {
		endAt := at + perBody
		if endAt > len(queries) {
			endAt = len(queries)
		}
		var pairs []estimatePair
		for i, q := range queries[at:endAt] {
			pairs = append(pairs, estimatePair{Query: q, View: vs.Views[(at+i)%len(vs.Views)].SQL})
		}
		raw, err := json.Marshal(estimateRequest{Pairs: pairs})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, raw)
	}
	return bodies
}

// expectIdentical posts every body to the cold (cache-disabled) server
// and twice to the cached server — once populating the cache, once all
// warm — and requires all three responses byte-identical.
func expectIdentical(t *testing.T, coldURL, cachedURL string, bodies [][]byte, phase string) [][]byte {
	t.Helper()
	want := make([][]byte, len(bodies))
	for i, body := range bodies {
		status, cold := postRaw(t, coldURL+"/v1/estimate", body)
		if status != http.StatusOK {
			t.Fatalf("%s: cold status %d: %s", phase, status, cold)
		}
		for _, pass := range []string{"populate", "warm"} {
			status, got := postRaw(t, cachedURL+"/v1/estimate", body)
			if status != http.StatusOK {
				t.Fatalf("%s: cached(%s) status %d: %s", phase, pass, status, got)
			}
			if !bytes.Equal(cold, got) {
				t.Fatalf("%s: cached(%s) response diverges from cold:\ncold:   %s\ncached: %s", phase, pass, cold, got)
			}
		}
		want[i] = cold
	}
	return want
}

// TestEstimateCacheByteIdentity is the cache-correctness property
// harness: across ~100 seeded queries (workload queries plus
// literal-bumped template variants), a cache-disabled server and a
// cached server — bootstrapped identically — must return byte-identical
// /v1/estimate responses on cold, populating, and fully warm passes; the
// identity must hold at every client parallelism level and across
// view-set rotation and model hot-reload boundaries, where each new
// model generation starts with an empty estimate cache. Run with -race
// in CI.
func TestEstimateCacheByteIdentity(t *testing.T) {
	w := serveWK()
	baseCfg := Config{Parallelism: 4, MaxBatch: 16}
	coldCfg := baseCfg
	coldCfg.CacheSize = -1 // disabled: every request takes the full path
	_, coldTS := newTestServer(t, coldCfg)
	cached, cachedTS := newTestServer(t, baseCfg)

	// Identical bootstrap is the precondition for comparing the two
	// servers at all.
	var vsCold, vsCached ViewSet
	getJSON(t, coldTS.URL+"/v1/views", &vsCold)
	getJSON(t, cachedTS.URL+"/v1/views", &vsCached)
	vsCold.CreatedAt, vsCached.CreatedAt = time.Time{}, time.Time{} // wall-clock stamps are the one legitimate difference
	if !reflect.DeepEqual(vsCold, vsCached) {
		t.Fatalf("bootstrap view sets diverge:\ncold:   %+v\ncached: %+v", vsCold, vsCached)
	}

	bodies := propertyBodies(t, w, vsCached)

	// Phase 1: cold vs populate vs warm.
	want := expectIdentical(t, coldTS.URL, cachedTS.URL, bodies, "bootstrap")
	if cached.gen.Load().est.len() == 0 {
		t.Fatal("estimate cache never populated")
	}
	if cached.planCache.len() == 0 {
		t.Fatal("plan cache never populated")
	}

	// Phase 2: warm reads under client concurrency (the server batches
	// across goroutines; responses must stay byte-identical). Run at
	// several parallelism levels; -race patrols the cache internals.
	for _, clients := range []int{1, 4, 8} {
		var wg sync.WaitGroup
		errs := make(chan error, clients*len(bodies))
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < len(bodies); i += clients {
					status, got := postRaw(t, cachedTS.URL+"/v1/estimate", bodies[i])
					if status != http.StatusOK {
						errs <- fmt.Errorf("clients=%d body %d: status %d", clients, i, status)
						continue
					}
					if !bytes.Equal(want[i], got) {
						errs <- fmt.Errorf("clients=%d body %d: warm response diverged", clients, i)
					}
				}
			}(c)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}

	// Phase 3: view-set rotation. Both servers re-advise over identical
	// windows (nothing was ingested), so they stay comparable; the
	// retrained model is a new generation, whose estimate cache starts
	// empty — nothing the previous weights computed can answer for it.
	for _, u := range []string{coldTS.URL, cachedTS.URL} {
		resp, body := postJSON(t, u+"/v1/advise", adviseRequest{Force: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("advise on %s: status %d: %s", u, resp.StatusCode, body)
		}
	}
	if n := cached.gen.Load().est.len(); n != 0 {
		t.Fatalf("the live generation's estimate cache starts with %d entries after the swap, want 0", n)
	}
	want = expectIdentical(t, coldTS.URL, cachedTS.URL, bodies, "post-rotation")

	// Phase 4: model hot-reload with a changed cost scale. Doubling the
	// scale halves every estimate, so any entry of the previous
	// generation answering for the new one would be caught by the cold
	// comparison below — and the responses must visibly change.
	cur := cached.gen.Load()
	path := t.TempDir() + "/wd.ckpt"
	if err := saveModel(cur.m, path); err != nil {
		t.Fatalf("save checkpoint: %v", err)
	}
	for _, u := range []string{coldTS.URL, cachedTS.URL} {
		resp, body := postJSON(t, u+"/v1/admin/model", reloadRequest{Path: path, Scale: cur.scale * 2})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reload on %s: status %d: %s", u, resp.StatusCode, body)
		}
	}
	postReload := expectIdentical(t, coldTS.URL, cachedTS.URL, bodies, "post-reload")
	changed := false
	for i := range postReload {
		if !bytes.Equal(want[i], postReload[i]) {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("scale-doubling reload left every response unchanged: the previous generation's estimates answered for the new one")
	}
}

// TestEstimateCacheServerParallelismLevels pins byte identity between a
// serial (Parallelism 1) cached server and the parallel cold baseline
// over a corpus subset: the cache must not introduce any dependence on
// the inference pool size.
func TestEstimateCacheServerParallelismLevels(t *testing.T) {
	w := serveWK()
	coldCfg := Config{Parallelism: 4, CacheSize: -1}
	_, coldTS := newTestServer(t, coldCfg)
	_, serialTS := newTestServer(t, Config{Parallelism: 1})

	var vs ViewSet
	getJSON(t, serialTS.URL+"/v1/views", &vs)
	bodies := propertyBodies(t, w, vs)
	if len(bodies) > 4 {
		bodies = bodies[:4] // a subset: the full sweep runs in TestEstimateCacheByteIdentity
	}
	expectIdentical(t, coldTS.URL, serialTS.URL, bodies, "parallelism-1")
}

// TestAdviseWorkersLeaveReadersACore pins how many workers each advise
// cycle gives the advisor, read from the serve.advise.workers gauge:
// with Parallelism 0 the bootstrap takes GOMAXPROCS and a forced
// re-advise max(1, GOMAXPROCS−1), while an explicit setting is used as
// given. The count must change nothing: after the re-advise, every
// server's view set and a seeded batch of /v1/estimate responses are
// byte-identical to the Parallelism 1 server's.
func TestAdviseWorkersLeaveReadersACore(t *testing.T) {
	w := serveWK()
	procs := runtime.GOMAXPROCS(0)

	type outcome struct {
		boot, readvise int
		views          []byte
		responses      [][]byte
	}
	var bodies [][]byte
	run := func(par int) outcome {
		coreCfg := serveCoreCfg()
		coreCfg.Parallelism = par
		s, err := New(w, coreCfg, Config{Parallelism: par})
		if err != nil {
			t.Fatalf("P=%d: New: %v", par, err)
		}
		ts := httptest.NewServer(s.Handler())
		defer func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s.Close(ctx); err != nil {
				t.Errorf("P=%d: Close: %v", par, err)
			}
		}()
		out := outcome{boot: int(obsAdviseWorkers.Value())}
		resp, body := postJSON(t, ts.URL+"/v1/advise", adviseRequest{Force: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("P=%d: advise status %d: %s", par, resp.StatusCode, body)
		}
		out.readvise = int(obsAdviseWorkers.Value())

		var vs ViewSet
		getJSON(t, ts.URL+"/v1/views", &vs)
		if vs.Version != 2 {
			t.Fatalf("P=%d: view-set version %d after a forced advise, want 2", par, vs.Version)
		}
		vs.CreatedAt = time.Time{} // the wall-clock stamp is the one legitimate difference
		if out.views, err = json.Marshal(vs); err != nil {
			t.Fatal(err)
		}
		if bodies == nil {
			bodies = propertyBodies(t, w, vs)[:6]
		}
		for i, b := range bodies {
			status, got := postRaw(t, ts.URL+"/v1/estimate", b)
			if status != http.StatusOK {
				t.Fatalf("P=%d: estimate body %d: status %d: %s", par, i, status, got)
			}
			out.responses = append(out.responses, got)
		}
		return out
	}

	serial := run(1)
	for _, tc := range []struct{ par, boot, readvise int }{
		{1, 1, 1},
		{0, procs, max(1, procs-1)},
		{3, 3, 3},
	} {
		got := serial
		if tc.par != 1 {
			got = run(tc.par)
		}
		if got.boot != tc.boot || got.readvise != tc.readvise {
			t.Errorf("P=%d: advisor workers %d at bootstrap, %d at re-advise; want %d, %d",
				tc.par, got.boot, got.readvise, tc.boot, tc.readvise)
		}
		if !bytes.Equal(got.views, serial.views) {
			t.Errorf("P=%d: view set diverges from P=1:\n%s\n%s", tc.par, got.views, serial.views)
		}
		for i := range bodies {
			if !bytes.Equal(got.responses[i], serial.responses[i]) {
				t.Errorf("P=%d: estimate body %d diverges from P=1:\n%s\n%s", tc.par, i, got.responses[i], serial.responses[i])
			}
		}
	}
}

// TestPlanMemoByteIdentityAcrossSwaps drives advise_mixed-shaped
// traffic — a fixed set of texts, every pair new — through one server
// whose plan-cache entries carry their plans' codes, before a model
// hot-reload, after it, and after a forced re-advise. Every response
// must equal, byte for byte, what a memo-free oracle answers under the
// model that was live: Predict, pair by pair, over plans parsed and
// precomputed afresh. And the memo must be doing the work: once every
// text has been seen under the live model, wd.infer.plans.encoded stops
// moving while wd.infer.plans keeps counting two per pair.
func TestPlanMemoByteIdentityAcrossSwaps(t *testing.T) {
	w := serveWK()
	s, ts := newTestServer(t, Config{Parallelism: 2, MaxBatch: 16})
	var vs ViewSet
	getJSON(t, ts.URL+"/v1/views", &vs)
	if len(vs.Views) < 2 {
		t.Fatalf("%d bootstrap views; the stream needs texts to repeat across pairs", len(vs.Views))
	}

	// warm covers every text once; stream is a seeded sample of the
	// remaining (query, view) pairs, so no pair of a phase repeats and
	// the estimate cache (new with every model) never answers.
	var warm, stream []estimatePair
	seen := make(map[string]bool) // the workload repeats some query texts
	for i, q := range w.Queries {
		if seen[q.SQL] {
			continue
		}
		seen[q.SQL] = true
		warm = append(warm, estimatePair{Query: q.SQL, View: vs.Views[i%len(vs.Views)].SQL})
		for j, v := range vs.Views {
			if j != i%len(vs.Views) {
				stream = append(stream, estimatePair{Query: q.SQL, View: v.SQL})
			}
		}
	}
	rng := rand.New(rand.NewSource(28))
	rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
	stream = stream[:min(len(stream), 320)]

	oracle := func(pairs []estimatePair) []byte {
		t.Helper()
		live := s.gen.Load()
		out := make([]float64, len(pairs))
		for i, p := range pairs {
			q, err := plan.Parse(p.Query, s.adv.Cat)
			if err != nil {
				t.Fatal(err)
			}
			v, err := plan.Parse(p.View, s.adv.Cat)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = live.m.Predict(featenc.Extract(q, v, s.adv.Cat)) / live.scale
		}
		rec := httptest.NewRecorder()
		s.writeJSON(rec, http.StatusOK, estimateResponse{Estimates: out, Count: len(out), ModelVersion: live.version})
		return rec.Body.Bytes()
	}
	send := func(phase string, pairs []estimatePair) {
		t.Helper()
		const perBody = 16
		for at := 0; at < len(pairs); at += perBody {
			chunk := pairs[at:min(at+perBody, len(pairs))]
			raw, err := json.Marshal(estimateRequest{Pairs: chunk})
			if err != nil {
				t.Fatal(err)
			}
			status, got := postRaw(t, ts.URL+"/v1/estimate", raw)
			if status != http.StatusOK {
				t.Fatalf("%s: status %d: %s", phase, status, got)
			}
			if want := oracle(chunk); !bytes.Equal(got, want) {
				t.Fatalf("%s: pairs %d..: response diverges from the memo-free oracle:\n got %s\nwant %s", phase, at, got, want)
			}
		}
	}
	plans := obs.Default.Counter("wd.infer.plans", "")
	encoded := obs.Default.Counter("wd.infer.plans.encoded", "")
	phase := func(name string) {
		t.Helper()
		e0 := encoded.Value()
		send(name+", first sight", warm)
		if encoded.Value() == e0 {
			t.Fatalf("%s: no plan was encoded under a model that had seen none", name)
		}
		p0, e0 := plans.Value(), encoded.Value()
		send(name, stream)
		if p, e := plans.Value()-p0, encoded.Value()-e0; p != int64(2*len(stream)) || e != 0 {
			t.Fatalf("%s: %d plan uses (want %d, two per pair), %d of them encoded (want 0: every text was seen under this model)",
				name, p, 2*len(stream), e)
		}
	}

	phase("bootstrap model")

	// Hot-reload a checkpoint with other weights: the live architecture,
	// every parameter scaled.
	cur := s.gen.Load()
	var ckpt bytes.Buffer
	if err := cur.m.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	other := widedeep.New(cur.m.Enc.Vocab, s.adv.Cfg.WDModel, rand.New(rand.NewSource(1)))
	if err := other.Load(&ckpt); err != nil {
		t.Fatal(err)
	}
	for _, p := range other.Params() {
		for i := range p.Val {
			p.Val[i] *= 0.75
		}
	}
	path := t.TempDir() + "/other.ckpt"
	if err := saveModel(other, path); err != nil {
		t.Fatal(err)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/admin/model", reloadRequest{Path: path}); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: status %d: %s", resp.StatusCode, body)
	}
	phase("after hot-reload")

	reloaded := s.gen.Load()
	if resp, body := postJSON(t, ts.URL+"/v1/advise", adviseRequest{Force: true}); resp.StatusCode != http.StatusOK {
		t.Fatalf("advise: status %d: %s", resp.StatusCode, body)
	}
	if s.gen.Load().m == reloaded.m {
		t.Fatal("the forced re-advise did not swap the model")
	}
	phase("after forced re-advise")
}
