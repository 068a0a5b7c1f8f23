package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"autoview/internal/core"
	"autoview/internal/widedeep"
	"autoview/internal/workload"
)

// serveWK builds a compact sharing-heavy workload for service tests.
func serveWK() *workload.Workload {
	return workload.WK(workload.WKParams{
		Name:             "mini",
		Projects:         4,
		FactsPerProject:  2,
		DimsPerProject:   1,
		Queries:          60,
		FragsPerProject:  3,
		Skew:             1.2,
		ThreeWayFraction: 0.2,
		RowSkew:          1.5,
		Seed:             77,
	})
}

// serveCoreCfg keeps bootstrap fast: a short W-D training run and the
// greedy selector.
func serveCoreCfg() core.Config {
	cfg := core.DefaultConfig()
	cfg.Estimator = core.EstimatorWideDeep
	cfg.Selector = core.SelectorTopkBen
	cfg.WDTrain.Epochs = 2
	cfg.Seed = 7
	return cfg
}

// serveCoreCfgPar is serveCoreCfg with par workers for training and
// inference.
func serveCoreCfgPar(par int) core.Config {
	cfg := serveCoreCfg()
	cfg.Parallelism = par
	return cfg
}

// newTestServer bootstraps a server plus an httptest front end and
// registers cleanup for both.
func newTestServer(t *testing.T, par int, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(serveWK(), serveCoreCfgPar(par), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, dst any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp
}

// TestServeRoundTrip walks the full online loop over HTTP: bootstrap
// views, ingest fresh queries, trigger a re-advise, and observe the
// atomically rotated, versioned view set (with DDL) plus health state.
func TestServeRoundTrip(t *testing.T) {
	w := serveWK()
	_, ts := newTestServer(t, 2, Config{})

	var health healthResponse
	if resp := getJSON(t, ts.URL+"/v1/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if health.Status != "ok" || health.Window != len(w.Queries) {
		t.Fatalf("healthz = %+v, want ok with window %d", health, len(w.Queries))
	}
	if health.ViewVersion != 1 || health.Views == 0 {
		t.Fatalf("bootstrap did not install view set v1: %+v", health)
	}
	if health.ModelVersion == 0 {
		t.Fatalf("bootstrap with EstimatorWideDeep left no model: %+v", health)
	}

	var vs ViewSet
	getJSON(t, ts.URL+"/v1/views", &vs)
	if vs.Version != 1 || len(vs.Views) == 0 {
		t.Fatalf("views = v%d with %d views, want v1 with >0", vs.Version, len(vs.Views))
	}
	for i, v := range vs.Views {
		if v.DDL == "" || v.SQL == "" || v.Fingerprint == "" {
			t.Fatalf("view %d incomplete: %+v", i, v)
		}
		if i > 0 && vs.Views[i-1].Fingerprint > v.Fingerprint {
			t.Fatalf("views not fingerprint-sorted at %d", i)
		}
	}

	// Ingest a handful of (repeat) queries into the rolling window.
	const ingestN = 5
	queries := make([]string, ingestN)
	for i := range queries {
		queries[i] = w.Queries[i].SQL
	}
	resp, body := postJSON(t, ts.URL+"/v1/queries", ingestRequest{Queries: queries})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, body)
	}
	var ing ingestResponse
	if err := json.Unmarshal(body, &ing); err != nil || ing.Accepted != ingestN || ing.Window != len(w.Queries)+ingestN {
		t.Fatalf("ingest response %s (err %v)", body, err)
	}

	// Re-advise (force: the repeat traffic shouldn't be able to block the
	// rotation) and watch the version advance atomically.
	resp, body = postJSON(t, ts.URL+"/v1/advise", adviseRequest{Force: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("advise status %d: %s", resp.StatusCode, body)
	}
	var res AdviseResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("advise response %s: %v", body, err)
	}
	if !res.Swapped || res.Version != 2 {
		t.Fatalf("advise = %+v, want swapped v2", res)
	}
	if res.Window != len(w.Queries)+ingestN {
		t.Fatalf("advise window %d, want %d (an ingest that answered 202 is missing)", res.Window, len(w.Queries)+ingestN)
	}

	getJSON(t, ts.URL+"/v1/views", &vs)
	if vs.Version != 2 {
		t.Fatalf("views version %d after advise, want 2", vs.Version)
	}
	getJSON(t, ts.URL+"/v1/healthz", &health)
	if health.ViewVersion != 2 || health.IngestedTotal != uint64(len(w.Queries)+ingestN) {
		t.Fatalf("healthz after advise = %+v", health)
	}
}

// TestServeEstimateDeterminism is the acceptance check for concurrent
// estimates: responses under heavy concurrency (requests queued on the
// inference slot, predicted through the worker pool) are byte-identical
// to the same requests served one at a time.
func TestServeEstimateDeterminism(t *testing.T) {
	_, ts := newTestServer(t, 4, Config{})

	var vs ViewSet
	getJSON(t, ts.URL+"/v1/views", &vs)
	if len(vs.Views) == 0 {
		t.Fatal("no bootstrap views to pair with")
	}
	w := serveWK()
	var pairs []estimatePair
	for qi := 0; qi < 6; qi++ {
		for vi := range vs.Views {
			if len(pairs) == 12 {
				break
			}
			pairs = append(pairs, estimatePair{Query: w.Queries[qi].SQL, View: vs.Views[vi].SQL})
		}
	}

	estimate := func(p estimatePair) (float64, error) {
		raw, err := json.Marshal(estimateRequest{Pairs: []estimatePair{p}})
		if err != nil {
			return 0, err
		}
		resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", bytes.NewReader(raw))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		var out estimateResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusOK || len(out.Estimates) != 1 {
			return 0, fmt.Errorf("status %d, %d estimates", resp.StatusCode, len(out.Estimates))
		}
		return out.Estimates[0], nil
	}

	// Sequential baseline: one pair per request, one request at a time.
	want := make([]float64, len(pairs))
	for i, p := range pairs {
		v, err := estimate(p)
		if err != nil {
			t.Fatalf("sequential estimate %d: %v", i, err)
		}
		want[i] = v
	}

	// Concurrent: every pair in flight at once, several rounds, so the
	// requests reach the inference slot in arbitrary orders.
	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(pairs))
	for r := 0; r < rounds; r++ {
		for i, p := range pairs {
			wg.Add(1)
			go func(i int, p estimatePair) {
				defer wg.Done()
				got, err := estimate(p)
				if err != nil {
					errs <- fmt.Errorf("concurrent estimate %d: %w", i, err)
					return
				}
				if got != want[i] { // bit-identity to sequential serving is the property under test
					errs <- fmt.Errorf("pair %d: concurrent %v != sequential %v", i, got, want[i])
				}
			}(i, p)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServeModelReload hot-swaps checkpointed weights through the admin
// endpoint and confirms the model version advances.
func TestServeModelReload(t *testing.T) {
	s, ts := newTestServer(t, 1, Config{})

	before := s.gen.Load()
	if before == nil {
		t.Fatal("no bootstrap model")
	}
	path := t.TempDir() + "/wd.ckpt"
	if err := saveModel(before.m, path); err != nil {
		t.Fatalf("save checkpoint: %v", err)
	}

	resp, body := postJSON(t, ts.URL+"/v1/admin/model", reloadRequest{Path: path})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d: %s", resp.StatusCode, body)
	}
	var out reloadResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("reload response %s: %v", body, err)
	}
	after := s.gen.Load()
	if out.ModelVersion != before.version+1 || after.version != out.ModelVersion {
		t.Fatalf("model version %d -> %d (response %d), want +1", before.version, after.version, out.ModelVersion)
	}
	if after.scale != before.scale { // the reload must keep the exact scale when none is given
		t.Fatalf("reload without scale changed it: %v -> %v", before.scale, after.scale)
	}

	// A checkpoint whose normalizer is the wrong width is refused — it
	// used to load and then panic on the next estimate
	// — and the old model keeps serving.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	snap["normalizer"] = map[string]any{"Mean": []float64{0, 0}, "Std": []float64{1, 1}}
	if raw, err = json.Marshal(snap); err != nil {
		t.Fatal(err)
	}
	badPath := t.TempDir() + "/bad.ckpt"
	if err := os.WriteFile(badPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, ts.URL+"/v1/admin/model", reloadRequest{Path: badPath})
	var envelope errorResponse
	if err := json.Unmarshal(body, &envelope); err != nil || resp.StatusCode != http.StatusBadRequest || envelope.Error.Code != "model_load_failed" {
		t.Fatalf("bad checkpoint: status %d, body %s (err %v), want 400 model_load_failed", resp.StatusCode, body, err)
	}
	w := serveWK()
	resp, body = postJSON(t, ts.URL+"/v1/estimate",
		estimateRequest{Pairs: []estimatePair{{Query: w.Queries[0].SQL, View: w.Queries[1].SQL}}})
	var est estimateResponse
	if err := json.Unmarshal(body, &est); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate after refused reload: status %d, body %s (err %v)", resp.StatusCode, body, err)
	}
	if est.ModelVersion != after.version {
		t.Fatalf("estimate answered by model %d, want the pre-refusal %d", est.ModelVersion, after.version)
	}
}

func saveModel(m *widedeep.Model, path string) error {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
