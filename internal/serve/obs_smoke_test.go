package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"autoview/internal/obs"
)

// serveSpans is the span set OBSERVABILITY.md documents for the serving
// and durable layers, plus the bring-up spans a daemon's start records;
// the smoke test pins the docs to the implementation.
var serveSpans = []string{
	"serve.estimate",
	"serve.ingest",
	"serve.views",
	"serve.healthz",
	"serve.advise.api",
	"serve.model.reload",
	"serve.batch",
	"serve.batch.wait",
	"serve.fingerprint",
	"serve.advise",
	"durable.recover",
	"durable.snapshot",
	"serve.restore",
	"workload.parse",
	"storage.populate",
}

// TestServeSessionEmitsDocumentedSpans is the serving twin of core's
// TestAdvisorRunEmitsDocumentedSpans: a durable server bootstraps, then
// answers an estimate, an ingest, views, healthz, a forced advise and a
// model reload, drains, and is reopened over its data directory. Every
// documented serve and durable span must record at least one
// observation.
func TestServeSessionEmitsDocumentedSpans(t *testing.T) {
	obs.Default.Reset()
	obs.Enable()
	defer obs.Disable()

	dir := t.TempDir()
	w := serveWK()
	s, st := startDurable(t, dir)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	pairs := []estimatePair{{Query: w.Queries[3].SQL, View: s.gen.Load().views.Views[0].SQL}}
	estimateBytes(t, ts.URL, pairs)
	if resp, body := postJSON(t, ts.URL+"/v1/queries", ingestRequest{Queries: serveCrashIngestA()}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, body)
	}
	viewsBytes(t, ts.URL)
	var health healthResponse
	if resp := getJSON(t, ts.URL+"/v1/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/advise", adviseRequest{Force: true}); resp.StatusCode != http.StatusOK {
		t.Fatalf("advise status %d: %s", resp.StatusCode, body)
	}
	path := t.TempDir() + "/model.ckpt"
	if err := saveModel(s.gen.Load().m, path); err != nil {
		t.Fatal(err)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/admin/model", reloadRequest{Path: path}); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d: %s", resp.StatusCode, body)
	}
	closeDurable(t, s, st)

	s2, st2 := startDurable(t, dir) // recovers the drained state
	if s2.gen.Load().views == nil {
		t.Fatal("reopen did not restore the view set")
	}
	closeDurable(t, s2, st2)

	hists := map[string]obs.HistSnap{}
	for _, h := range obs.Default.Snapshot().Histograms {
		hists[h.Name] = h
	}
	for _, span := range serveSpans {
		if h, ok := hists[span+".seconds"]; !ok || h.Count == 0 {
			t.Errorf("span %s recorded no observation over the session", span)
		}
	}
}
