package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"autoview/internal/plan"
	"autoview/internal/sqlparse"
	"autoview/internal/workload"
)

func wk1SQL(t *testing.T) (*workload.Workload, []string) {
	t.Helper()
	w := workload.WK1()
	sqls := make([]string, len(w.Queries))
	for i := range w.Queries {
		sqls[i] = w.Queries[i].SQL
	}
	return w, sqls
}

var testViews = []string{
	"select p01_fact1.key, p01_fact1.val from p01_fact1 where p01_fact1.cat = 1",
	"select p02_dim1.id, p02_dim1.attr, p02_dim1.grp from p02_dim1 where p02_dim1.grp = 3",
	"select p03_fact2.key, p03_fact2.val from p03_fact2 where p03_fact2.status = 2",
	"select p04_fact1.key, p04_fact1.val from p04_fact1 where p04_fact1.cat = 5",
}

// streamBytes concatenates the first n requests of every generator for
// one seed.
func streamBytes(seed int64, queries []string, n int) []byte {
	var out bytes.Buffer
	hot, err := hotSet(seed, queries, testViews)
	if err != nil {
		panic(err)
	}
	for _, b := range hot {
		out.Write(b)
	}
	tmpl := templatesOf(queries)
	novel := newNovelStream(seed, 0, 3, tmpl)
	writer := newNovelStream(seed, 2, 3, tmpl)
	mixed := newMixedStream(seed, 0, queries, testViews)
	for i := 0; i < n; i++ {
		out.Write(novel.estimateBody())
		out.Write(writer.ingestBody(ingestQueries))
		out.Write(mixed.estimateBody())
	}
	return out.Bytes()
}

func TestSameSeedSameStreams(t *testing.T) {
	_, sqls := wk1SQL(t)
	a, b := streamBytes(7, sqls, 20), streamBytes(7, sqls, 20)
	if !bytes.Equal(a, b) {
		t.Fatal("two generations with seed 7 differ")
	}
	if c := streamBytes(8, sqls, 20); bytes.Equal(a, c) {
		t.Fatal("seeds 7 and 8 generate the same request streams")
	}
}

func TestNovelStatementsBindAndAreDistinct(t *testing.T) {
	w, sqls := wk1SQL(t)
	tmpl := templatesOf(sqls)
	if len(tmpl) != len(sqls) {
		t.Fatalf("%d of %d wk1 queries have the shape the generator rewrites", len(tmpl), len(sqls))
	}
	seen := map[[16]byte]string{}
	for _, q := range sqls {
		fp, err := sqlparse.Fingerprint(q)
		if err != nil {
			t.Fatal(err)
		}
		seen[fp.Exact] = q
	}
	// Two interleaved streams, as estimate_novel's two clients run them.
	streams := []*novelStream{newNovelStream(3, 0, 2, tmpl), newNovelStream(3, 1, 2, tmpl)}
	for i := 0; i < 1500; i++ {
		q, v := streams[i%2].pair()
		for _, sql := range []string{q, v} {
			if _, err := plan.Parse(sql, w.Cat); err != nil {
				t.Fatalf("novel statement does not bind: %v\n%s", err, sql)
			}
			fp, err := sqlparse.Fingerprint(sql)
			if err != nil {
				t.Fatal(err)
			}
			if prev, dup := seen[fp.Exact]; dup {
				t.Fatalf("novel statement repeats an earlier one:\n%s\n%s", sql, prev)
			}
			seen[fp.Exact] = sql
		}
	}
	// Ingest statements keep their fragment, so they must still bind.
	for i := 0; i < 500; i++ {
		sql := streams[0].ingestQuery()
		if _, err := plan.Parse(sql, w.Cat); err != nil {
			t.Fatalf("ingest statement does not bind: %v\n%s", err, sql)
		}
	}
}

func TestHotSetFitsHalfTheEstimateCache(t *testing.T) {
	_, sqls := wk1SQL(t)
	if _, err := hotSet(1, sqls, testViews[:3]); err == nil {
		t.Fatal("a pair space smaller than the hot set was accepted")
	}
	bodies, err := hotSet(1, sqls, testViews)
	if err != nil {
		t.Fatal(err)
	}
	if len(bodies) != hotBodies {
		t.Fatalf("%d bodies, want %d", len(bodies), hotBodies)
	}
	pairs := map[estimatePair]bool{}
	for _, b := range bodies {
		var eb estimateBody
		if err := json.Unmarshal(b, &eb); err != nil {
			t.Fatal(err)
		}
		for _, p := range eb.Pairs {
			pairs[p] = true
		}
	}
	if len(pairs) > 2048 || len(pairs) != hotBodies*pairsPerRequest {
		t.Fatalf("hot set holds %d distinct pairs, want %d (at most 2048)", len(pairs), hotBodies*pairsPerRequest)
	}
}

func TestPercentileSelection(t *testing.T) {
	ds := make([]time.Duration, 1000)
	for i := range ds {
		ds[i] = time.Duration(1000-i) * time.Millisecond // unsorted on purpose
	}
	got := summarize(ds, 99)
	if got.N != 1000 || got.MedianMS != 500 || got.Tail != 99 || got.TailMS != 990 {
		t.Fatalf("summarize(1..1000 ms) = %+v, want median 500, p99 = 990", got)
	}
	for _, c := range []struct {
		n    int
		cap  float64
		want float64
	}{
		{10000, 99.9, 99.9}, {10000, 99, 99}, {9999, 99.9, 99}, {1000, 99, 99}, {999, 99, 95}, {200, 99, 95}, {199, 99, 90}, {100, 99, 90}, {99, 99, 50}, {1, 99, 50},
	} {
		if got := tailPercentile(c.n, c.cap); got != c.want {
			t.Errorf("tailPercentile(%d, cap %v) = %v, want %v (at least %d samples beyond it)", c.n, c.cap, got, c.want, minBeyond)
		}
	}
	if p := percentile([]time.Duration{1, 2, 3, 4}, 50); p != 2 {
		t.Errorf("nearest-rank p50 of 1..4 = %v, want 2", p)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Fatalf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q2, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Fatalf("quartiles(1,2,3) = %v %v %v", q1, q2, q3)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "request", Parent: -1, Start: 0, End: 100},
		{Name: "parse", Parent: 0, Start: 10, End: 30},
		{Name: "infer", Parent: 0, Start: 25, End: 60}, // overlaps parse by 5
		{Name: "kernel", Parent: 2, Start: 30, End: 50},
		{Name: "late", Parent: 0, Start: 90, End: 120}, // runs past its parent
	}
	want := []time.Duration{100 - (20 + 30 + 10), 20, 35 - 20, 20, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestReconcileVerdicts(t *testing.T) {
	if r := reconcile("t", "p", 10, "s", map[string]float64{"a": 4, "b": 5}); r.Verdict != "reconciled" || math.Abs(r.Unattributed-0.1) > 1e-12 {
		t.Errorf("9 of 10 attributed: %+v", r)
	}
	if r := reconcile("t", "p", 10, "s", map[string]float64{"a": 4}); !strings.HasPrefix(r.Verdict, "unmeasured layer") {
		t.Errorf("4 of 10 attributed: %+v", r)
	}
	over := reconcile("t", "p", 10, "s", map[string]float64{"a": 8, "b": 4})
	if !strings.HasPrefix(over.Verdict, "measurement bug") || !over.failsRun() {
		t.Errorf("12 of 10 attributed, nested: %+v", over)
	}
	// Two executions of one piece of work may differ by more than the
	// limit; only nested layers fail the run.
	if r := over.separate(); !strings.HasPrefix(r.Verdict, "replay slower") || r.failsRun() {
		t.Errorf("12 of 10 attributed, separate executions: %+v", r)
	}
}

// The checks are live: each of these replies is wrong in one way and
// must be refused.
func TestEstimateReplyCheck(t *testing.T) {
	good := []byte(`{"estimates":[0.5,1.25e-3,2],"count":3,"model_version":4}` + "\n")
	if v, err := checkEstimateReply(200, good, 3); err != nil || v != 4 {
		t.Fatalf("good reply refused: version %d, %v", v, err)
	}
	for name, c := range map[string]struct {
		status int
		reply  string
		want   int
	}{
		"wrong expectation":  {200, string(good), 4},
		"error status":       {429, `{"error":{"code":"overloaded","message":"x"}}`, 3},
		"count field lies":   {200, `{"estimates":[0.5,1,2],"count":2,"model_version":4}`, 3},
		"not a number":       {200, `{"estimates":[0.5,NaN,2],"count":3,"model_version":4}`, 3},
		"infinite":           {200, `{"estimates":[0.5,1e999,2],"count":3,"model_version":4}`, 3},
		"truncated":          {200, `{"estimates":[0.5,1`, 3},
		"trailing garbage":   {200, `{"estimates":[0.5,1,2],"count":3,"model_version":4}}`, 3},
		"empty estimate set": {200, `{"estimates":[],"count":0,"model_version":4}`, 0},
	} {
		if _, err := checkEstimateReply(c.status, []byte(c.reply), c.want); err == nil {
			t.Errorf("%s: reply %q was accepted for %d pairs", name, c.reply, c.want)
		}
	}
}

func TestPipelineReportCheck(t *testing.T) {
	line := "W-D+RLView: #q=600 cq=$2.3577 | #m=86 om=$0.1548 | #(q|v)=385 bq|v=$1.0723 | rc=38.92%"
	rep, err := parseReport(line)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.check(); err != nil {
		t.Fatalf("a consistent report was refused: %v", err)
	}
	for name, bad := range map[string]string{
		"rc does not follow from the columns": strings.Replace(line, "rc=38.92%", "rc=41.00%", 1),
		"not the whole workload":              strings.Replace(line, "#q=600", "#q=599", 1),
		"views cost more than they save":      "W-D+RLView: #q=600 cq=$2.3577 | #m=86 om=$1.5000 | #(q|v)=385 bq|v=$1.0723 | rc=-18.14%",
	} {
		rep, err := parseReport(bad)
		if err == nil {
			err = rep.check()
		}
		if err == nil {
			t.Errorf("%s: %q was accepted", name, bad)
		}
	}
	if _, err := parseReport("done in 20s"); err == nil {
		t.Error("a line that is no report parsed")
	}
}

func TestDiffVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name   string
		b      []float64
		better string
		want   string
	}{
		{"same", []float64{100, 100, 101, 99, 101}, "lower", verdictWithin},
		{"slower latency", []float64{115, 116, 114, 115, 117}, "lower", verdictRegressed},
		{"faster latency", []float64{90, 91, 89, 90, 92}, "lower", verdictImproved},
		{"lower throughput", []float64{85, 86, 84, 85, 87}, "higher", verdictRegressed},
		{"noisy", []float64{80, 120, 100, 60, 140}, "lower", verdictUnresolved},
	} {
		if got, _, _, _, _ := judge(steady, c.b, c.better, 0.10, false); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	// r_c is judged in percentage points.
	if got, _, _, _, _ := judge([]float64{38.9}, []float64{38.2}, "higher", 0.5, true); got != verdictRegressed {
		t.Errorf("r_c 38.9 → 38.2: verdict %q, want a regression past 0.5 points", got)
	}
}

// BENCHMARK.json and the harness must name the same workloads, and the
// spec must satisfy the limits its contract states.
func TestSpecMatchesHarness(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloadNames[i])
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	names := map[string]bool{}
	hasSetup := false
	for _, m := range append(append([]specMetric{}, spec.EndToEnd...), spec.PerLayer...) {
		if names[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 {
			t.Errorf("metric %q (unit %q) is repeated or too long", m.Name, m.Unit)
		}
		names[m.Name] = true
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == mSetup && m.Unit == unitS && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	// 4 + 22 runs per workload, and two builds, must fit the driver's cap
	// with the run lengths measured on the build box (README.md).
	if runs := 4 + 22*len(spec.Workloads); float64(runs)*30 > 3420-120 {
		t.Errorf("%d runs of ~30 s do not fit 3420 s", runs)
	}
}

// TestLiveSmoke drives a real daemon for a second. It needs the go
// toolchain and about 15 s, so it is skipped under -short.
func TestLiveSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a real viewserverd")
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir("bench"); err != nil {
			t.Fatal(err)
		}
	}()
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	h, err := newHarness(context.Background(), 5, 1, false, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	r := h.run(context.Background(), wlHot)
	line, err := spec.project(r)
	if err != nil {
		t.Fatalf("%v\nfailures: %v\n%s", err, r.Failures, r.DaemonStderr)
	}
	if !line.Correct || line.Failed != 0 || line.Attempted < hotBodies {
		t.Fatalf("smoke run: %+v, failures %v", line, r.Failures)
	}
	for name, v := range line.Metrics {
		if !(v.Value > 0) {
			t.Errorf("metric %s is %v, want a positive number", name, v.Value)
		}
	}
	if hit := r.Notes["serve.cache_hit_ratio"]; hit < 0.99 {
		t.Errorf("estimate_hot hit the estimate cache on %.3f of its pairs, want at least 0.99", hit)
	}

	// A daemon that cannot start fails its planned operations and does
	// not hang.
	h.serverBin = "/nonexistent/viewserverd"
	start := time.Now()
	r = h.run(context.Background(), wlNovel)
	if _, failed := r.totals(); failed < 5 || time.Since(start) > 5*time.Second {
		t.Errorf("a missing daemon binary gave %d failed operations in %v", failed, time.Since(start))
	}
}

// At the reference speed a measurement is reported as measured; a machine
// at half the loopback speed halves what estimate_hot reports and leaves a
// workload that ignores that probe alone.
func TestSpeedFactor(t *testing.T) {
	ref := speed{http: refHTTP, cpu: refCPU}
	for _, w := range probeWeight {
		if f := ref.factor(w); math.Abs(f-1) > 1e-12 {
			t.Errorf("factor at the reference speed with weight %v = %v, want 1", w, f)
		}
	}
	slow := speed{http: refHTTP / 2, cpu: refCPU}
	if f := slow.factor(probeWeight[wlHot]); math.Abs(f-0.5) > 1e-12 {
		t.Errorf("estimate_hot's factor at half the loopback speed = %v, want 0.5", f)
	}
	if f := slow.factor(0); math.Abs(f-1) > 1e-12 {
		t.Errorf("factor with no weight on the loopback probe = %v, want 1", f)
	}
}
