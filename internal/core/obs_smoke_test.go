package core

import (
	"strings"
	"testing"

	"autoview/internal/obs"
)

// advisorSpans is the span set OBSERVABILITY.md documents for one full
// Advisor.Run; the smoke test pins the docs to the implementation.
var advisorSpans = []string{
	"workload.parse",
	"storage.populate",
	"advisor.preprocess",
	"preprocess.decompose",
	"preprocess.equiv_merge",
	"preprocess.candidates",
	"preprocess.overlap",
	"advisor.measure",
	"advisor.materialize",
	"advisor.estimate",
	"wd.train",
	"wd.train.encode",
	"nn.train.step",
	"wd.train.opgrad",
	"advisor.select",
	"advisor.rewrite",
	"engine.exec",
}

// TestAdvisorRunEmitsDocumentedSpans runs the full pipeline with the
// registry enabled and checks every documented stage span recorded at
// least one observation, plus the run/query counters.
func TestAdvisorRunEmitsDocumentedSpans(t *testing.T) {
	obs.Default.Reset()
	obs.Enable()
	defer obs.Disable()

	w := smallWK()
	cfg := fastConfig()
	cfg.Estimator = EstimatorWideDeep // so the estimate stage trains
	a := newAdvisor(t, w, cfg)
	rep, err := a.Run(w.Plans())
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumQueries == 0 {
		t.Fatal("empty report")
	}

	snap := obs.Default.Snapshot()
	hists := map[string]obs.HistSnap{}
	for _, h := range snap.Histograms {
		hists[h.Name] = h
	}
	for _, span := range advisorSpans {
		h, ok := hists[span+".seconds"]
		if !ok {
			t.Errorf("span %s: no %s.seconds histogram in snapshot", span, span)
			continue
		}
		if h.Count == 0 {
			t.Errorf("span %s: zero observations after a full run", span)
		}
		if h.Sum < 0 {
			t.Errorf("span %s: negative total duration %g", span, h.Sum)
		}
	}

	ctrs := map[string]int64{}
	for _, c := range snap.Counters {
		ctrs[c.Name] = c.Value
	}
	if ctrs["core.runs"] != 1 {
		t.Errorf("core.runs = %d, want 1", ctrs["core.runs"])
	}
	if ctrs["core.queries"] == 0 {
		t.Error("core.queries not incremented")
	}
	if ctrs["engine.exec.count"] == 0 {
		t.Error("engine.exec.count not incremented")
	}
	// W-D training encodes at least one operator per batch and at most
	// one per use.
	if uses, distinct := ctrs["wd.train.ops"], ctrs["wd.train.ops.distinct"]; distinct == 0 || distinct > uses {
		t.Errorf("wd.train.ops.distinct = %d, want in [1, wd.train.ops = %d]", distinct, uses)
	}

	// The Prometheus exposition of the same run must carry enough series
	// for a scraper to be useful (the acceptance bar is ≥ 15).
	var sb strings.Builder
	snap.WritePrometheus(&sb)
	series := 0
	for _, line := range strings.Split(sb.String(), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			series++
		}
	}
	if series < 15 {
		t.Errorf("/metrics exposes %d series, want >= 15", series)
	}
}
