package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"autoview/internal/durable"
	"autoview/internal/featenc"
	"autoview/internal/plan"
	"autoview/internal/widedeep"
)

// post sends body as JSON and decodes a 200 reply into dst; safe to call
// from any goroutine (it reports failures instead of calling t.Fatal).
func post(url string, body, dst any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body) // best effort: the status is the failure
		return fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, buf.Bytes())
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}

// TestEstimateRepliesNameTheirModel: every /v1/estimate reply is
// computed from exactly the model its model_version names — estimate
// cache hits and freshly computed pairs alike — while hot-reloads
// alternate two checkpoints with different weights underneath the
// readers. The oracle is the per-pair Predict(f)/scale of the named
// model, which never touches a cache.
func TestEstimateRepliesNameTheirModel(t *testing.T) {
	s, ts := newTestServer(t, 2, Config{})
	w := serveWK()
	var vs ViewSet
	getJSON(t, ts.URL+"/v1/views", &vs)
	if len(vs.Views) == 0 {
		t.Fatal("no bootstrap views to pair with")
	}

	boot := s.gen.Load()
	ckpts, oracles := twoCheckpoints(t, s)

	// Bodies: one fixed body every reader repeats (an estimate-cache hit
	// whenever its generation has answered it once) and, per request, a
	// body of literal-bumped queries no generation has seen.
	const readers, rounds, perBody = 4, 12, 4
	var queries []string
	for _, q := range w.Queries {
		queries = append(queries, q.SQL)
	}
	pairsOf := func(qs []string) []estimatePair {
		out := make([]estimatePair, len(qs))
		for i, q := range qs {
			out[i] = estimatePair{Query: q, View: vs.Views[i%len(vs.Views)].SQL}
		}
		return out
	}
	cached := pairsOf(queries[:perBody])
	novel := make([][][]estimatePair, readers)
	for r := range novel {
		for k := 0; k < rounds; k++ {
			var qs []string
			for i := 0; len(qs) < perBody; i++ {
				if v := bumpLiterals(t, queries[(r*rounds+k+i)%len(queries)], fmt.Sprintf("%d%d", r, k), w.Cat); v != "" {
					qs = append(qs, v)
				}
			}
			novel[r] = append(novel[r], pairsOf(qs))
		}
	}

	replies, served := raceReloads(t, ts.URL, ckpts, readers, rounds, func(r, k int) [][]estimatePair {
		return [][]estimatePair{cached, novel[r][k]}
	})
	checkReplies(t, s, boot, served, oracles, replies)
}

// genRecorder is a store that keeps every generation record it logs
// (under the server's durMu, like every append).
type genRecorder struct {
	*durable.Store
	gens []durable.GenerationRecord
}

func (r *genRecorder) AppendGeneration(rec durable.GenerationRecord) error {
	r.gens = append(r.gens, rec)
	return r.Store.AppendGeneration(rec)
}

// TestModelVersionsAreUnique: concurrent hot-reloads and a forced
// re-advise each publish their own model version — N reloads plus one
// advise give N+1 distinct versions — every reload reply names the
// version it published, and each version is logged once, with the
// scale published under it and a durable checkpoint that loads.
func TestModelVersionsAreUnique(t *testing.T) {
	st, err := durable.Open(durableOpts(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	rec := &genRecorder{Store: st}
	s := NewServer(serveWK(), serveCoreCfgPar(1), Config{})
	if err := s.start(rec, nil); err != nil {
		t.Fatal(err)
	}
	defer closeDurable(t, s, st)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	ts := srv.URL
	boot := s.gen.Load()
	path := filepath.Join(t.TempDir(), "wd.ckpt")
	if err := saveModel(boot.m, path); err != nil {
		t.Fatal(err)
	}

	// Reload k asks for its own scale, so its record says whose it is.
	const n = 8
	scaleOf := func(k int) float64 { return boot.scale * float64(k+2) }
	got := make([]int, n)
	errs := make(chan error, n+1)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			<-start
			var out reloadResponse
			if err := post(ts+"/v1/admin/model", reloadRequest{Path: path, Scale: scaleOf(k)}, &out); err != nil {
				errs <- err
				return
			}
			got[k] = out.ModelVersion
		}(k)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		var res AdviseResult
		if err := post(ts+"/v1/advise", adviseRequest{Force: true}, &res); err != nil {
			errs <- err
		}
	}()
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if last := s.gen.Load().version; last != boot.version+n+1 {
		t.Fatalf("%d reloads and one advise took the model from version %d to %d, want %d", n, boot.version, last, boot.version+n+1)
	}
	byVersion := map[int]int{}
	for k, v := range got {
		if prev, dup := byVersion[v]; dup {
			t.Fatalf("reloads %d and %d both replied model version %d", prev, k, v)
		}
		if v <= boot.version || v > boot.version+n+1 {
			t.Fatalf("reload %d replied version %d, outside %d..%d", k, v, boot.version+1, boot.version+n+1)
		}
		byVersion[v] = k
	}
	logged := map[int]durable.ModelRecord{}
	s.durMu.Lock()
	for _, g := range rec.gens {
		logged[g.Model.Version] = g.Model
	}
	if len(logged) != len(rec.gens) {
		t.Fatalf("%d generation records name %d model versions", len(rec.gens), len(logged))
	}
	s.durMu.Unlock()
	for v := boot.version + 1; v <= boot.version+n+1; v++ {
		m := logged[v]
		if _, err := s.loadCheckpoint(filepath.Join(st.Dir(), m.Path)); err != nil || m.Path != durable.ModelCheckpointName(v) {
			t.Fatalf("version %d logged as %+v (checkpoint: %v)", v, m, err)
		}
		if k, ok := byVersion[v]; ok && m.Scale != scaleOf(k) {
			t.Fatalf("version %d logged with scale %v, but reload %d (scale %v) replied that version", v, m.Scale, k, scaleOf(k))
		}
	}
}

// TestHealthzReportsPublishedGenerations: while forced advises publish
// new weights with new view sets, every /v1/healthz reply reports a
// model version and a view version that were published together — their
// difference stays what it was at bootstrap, since every forced advise
// moves both — and every /v1/views reply carries a version an advise
// replied (or the bootstrap's). The server is durable, so each publish
// also saves a checkpoint and forces the WAL: the slow steps a reader
// would otherwise see half of.
func TestHealthzReportsPublishedGenerations(t *testing.T) {
	s, st := startDurable(t, t.TempDir())
	defer closeDurable(t, s, st)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	ts := srv.URL

	get := func(path string, dst any) error {
		resp, err := http.Get(ts + path)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		return json.NewDecoder(resp.Body).Decode(dst)
	}
	var boot healthResponse
	if err := get("/v1/healthz", &boot); err != nil {
		t.Fatal(err)
	}
	offset := boot.ModelVersion - boot.ViewVersion

	const readers, advises = 3, 4
	var (
		mu      sync.Mutex
		healths []healthResponse
		seen    []int // /v1/views versions
	)
	done := make(chan struct{})
	errs := make(chan error, readers+1)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var h healthResponse
				var vs ViewSet
				if err := get("/v1/healthz", &h); err != nil {
					errs <- err
					return
				}
				if err := get("/v1/views", &vs); err != nil {
					errs <- err
					return
				}
				mu.Lock()
				healths = append(healths, h)
				seen = append(seen, vs.Version)
				mu.Unlock()
			}
		}()
	}
	published := map[int]bool{boot.ViewVersion: true}
	for k := 0; k < advises; k++ {
		var res AdviseResult
		if err := post(ts+"/v1/advise", adviseRequest{Force: true}, &res); err != nil {
			errs <- err
			break
		}
		published[res.Version] = true
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if len(published) != advises+1 {
		t.Fatalf("%d forced advises published view versions %v", advises, published)
	}
	for _, h := range healths {
		if h.ModelVersion-h.ViewVersion != offset {
			t.Fatalf("healthz reported model %d beside view set %d; every published pair differs by %d",
				h.ModelVersion, h.ViewVersion, offset)
		}
	}
	for _, v := range seen {
		if !published[v] {
			t.Fatalf("/v1/views served version %d, which no advise published (%v)", v, published)
		}
	}
	t.Logf("%d healthz and /v1/views reads across %d advises", len(healths), advises)
}

// twoCheckpoints saves two checkpoints of s's live model: its weights,
// and every parameter of them scaled by 0.75. It returns their paths
// and, by path, the weights a reload of each serves, rebuilt the way
// the reload handler rebuilds them.
func twoCheckpoints(t *testing.T, s *Server) ([2]string, map[string]*widedeep.Model) {
	t.Helper()
	live := s.gen.Load()
	dir := t.TempDir()
	ckpts := [2]string{filepath.Join(dir, "a.ckpt"), filepath.Join(dir, "b.ckpt")}
	load := func(path string) *widedeep.Model {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m := widedeep.New(live.m.Enc.Vocab, s.adv.Cfg.WDModel, rand.New(rand.NewSource(s.adv.Cfg.Seed)))
		if err := m.Load(bytes.NewReader(raw)); err != nil {
			t.Fatal(err)
		}
		return m
	}
	if err := saveModel(live.m, ckpts[0]); err != nil {
		t.Fatal(err)
	}
	other := load(ckpts[0])
	for _, p := range other.Params() {
		for i := range p.Val {
			p.Val[i] *= 0.75
		}
	}
	if err := saveModel(other, ckpts[1]); err != nil {
		t.Fatal(err)
	}
	return ckpts, map[string]*widedeep.Model{ckpts[0]: load(ckpts[0]), ckpts[1]: load(ckpts[1])}
}

// reply is one /v1/estimate reply with the pairs it answered.
type reply struct {
	pairs []estimatePair
	resp  estimateResponse
}

// checkReplies holds every reply to the model its model_version names:
// boot's, or the checkpoint served records a reload published under
// that version. The oracle is the per-pair Predict(f)/scale of that
// model, which never touches a cache. It fails when every reply named
// one model.
func checkReplies(t *testing.T, s *Server, boot *generation, served map[int]string, oracles map[string]*widedeep.Model, replies []reply) {
	t.Helper()
	type memoKey struct {
		m           *widedeep.Model
		query, view string
	}
	memo := map[memoKey]float64{}
	parse := func(sql string) *plan.Node {
		n, err := plan.Parse(sql, s.adv.Cat)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	oracle := func(m *widedeep.Model, p estimatePair) float64 {
		k := memoKey{m, p.Query, p.View}
		if v, ok := memo[k]; ok {
			return v
		}
		memo[k] = m.Predict(featenc.Extract(parse(p.Query), parse(p.View), s.adv.Cat)) / boot.scale
		return memo[k]
	}
	versions := map[int]bool{}
	for _, rep := range replies {
		m := boot.m
		if v := rep.resp.ModelVersion; v != boot.version {
			path, ok := served[v]
			if !ok {
				t.Fatalf("reply names model %d, which no swap published", v)
			}
			m = oracles[path]
		}
		versions[rep.resp.ModelVersion] = true
		for i, p := range rep.pairs {
			if got, want := rep.resp.Estimates[i], oracle(m, p); got != want {
				t.Fatalf("reply naming model %d: pair %d = %v, that model answers %v", rep.resp.ModelVersion, i, got, want)
			}
		}
	}
	if len(versions) < 2 {
		t.Fatalf("every reply named one model (%v): the reloads never overlapped the readers", versions)
	}
}

// raceReloads runs readers goroutines, each sending bodies(r, k) for its
// rounds k, while a writer hot-reloads the two checkpoints in turn. The
// readers' last round waits for the writer's second reload (or its
// exit), so that however fast an estimate is, at least two reloads run
// while the readers do. It returns every reply, and the checkpoint each
// reload published by model version.
func raceReloads(t *testing.T, url string, ckpts [2]string, readers, rounds int, bodies func(r, k int) [][]estimatePair) ([]reply, map[int]string) {
	t.Helper()
	var (
		mu      sync.Mutex
		replies []reply
		served  = map[int]string{} // model version → checkpoint a reload published it from
	)
	done := make(chan struct{})
	errs := make(chan error, readers+1)
	twoSwaps, writerExited := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				if k == rounds-1 {
					select {
					case <-twoSwaps:
					case <-writerExited:
					}
				}
				for _, pairs := range bodies(r, k) {
					var out estimateResponse
					if err := post(url+"/v1/estimate", estimateRequest{Pairs: pairs}, &out); err != nil {
						errs <- err
						return
					}
					mu.Lock()
					replies = append(replies, reply{pairs, out})
					mu.Unlock()
				}
			}
		}(r)
	}
	swaps := 0
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		defer close(writerExited)
		for k := 0; ; k++ {
			select {
			case <-done:
				return
			default:
			}
			var out reloadResponse
			if err := post(url+"/v1/admin/model", reloadRequest{Path: ckpts[k%2]}, &out); err != nil {
				errs <- err
				return
			}
			mu.Lock()
			served[out.ModelVersion] = ckpts[k%2]
			swaps++
			if swaps == 2 {
				close(twoSwaps)
			}
			mu.Unlock()
		}
	}()
	wg.Wait()
	close(done)
	writer.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if swaps < 2 {
		t.Fatalf("only %d hot-reloads ran beside the readers", swaps)
	}

	return replies, served
}
