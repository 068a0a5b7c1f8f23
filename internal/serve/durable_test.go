package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"reflect"
	"testing"
	"time"

	"autoview/internal/durable"
	"autoview/internal/plan"
)

// durableOpts is the store configuration every durability test shares
// (automatic snapshots off, so record counts are predictable).
func durableOpts(dir string) durable.Options {
	return durable.Options{Dir: dir, Fsync: durable.FsyncInterval, SnapshotEvery: -1, WindowCap: 512}
}

// startDurable opens dir and starts a server over it.
func startDurable(t *testing.T, dir string) (*Server, *durable.Store) {
	t.Helper()
	st, err := durable.Open(durableOpts(dir))
	if err != nil {
		t.Fatalf("durable.Open: %v", err)
	}
	s := NewServer(serveWK(), serveCoreCfg(), Config{Parallelism: 1})
	if err := s.Start(context.Background(), st); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return s, st
}

func closeDurable(t *testing.T, s *Server, st *durable.Store) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("store close: %v", err)
	}
}

// TestServeReadinessGate: before Start, /v1/healthz answers 503 with
// state "recovering" and every other endpoint is gated; after Start the
// state flips to "ready".
func TestServeReadinessGate(t *testing.T) {
	s := NewServer(serveWK(), serveCoreCfg(), Config{Parallelism: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var health healthResponse
	if resp := getJSON(t, ts.URL+"/v1/healthz", &health); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-Start healthz status %d, want 503", resp.StatusCode)
	}
	if health.State != "recovering" || health.Status != "starting" {
		t.Fatalf("pre-Start healthz = %+v, want state recovering", health)
	}
	var errResp errorResponse
	if resp := getJSON(t, ts.URL+"/v1/views", &errResp); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-Start views status %d, want 503", resp.StatusCode)
	}
	if errResp.Error.Code != "recovering" {
		t.Fatalf("pre-Start views error = %+v, want code recovering", errResp)
	}

	if err := s.Start(context.Background(), nil); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	if resp := getJSON(t, ts.URL+"/v1/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-Start healthz status %d", resp.StatusCode)
	}
	if health.State != "ready" || health.Status != "ok" {
		t.Fatalf("post-Start healthz = %+v, want state ready", health)
	}
}

// TestServeDrainFlushesQueuedIngest is the no-loss drain check: every
// ingest batch accepted before Close lands in the window AND the WAL,
// even when Close fires with the queue still full.
func TestServeDrainFlushesQueuedIngest(t *testing.T) {
	dir := t.TempDir()
	s, st := startDurable(t, dir)
	w := serveWK()
	seed := uint64(len(w.Queries))

	const batches = 50
	for i := 0; i < batches; i++ {
		sql := w.Queries[i%len(w.Queries)].SQL
		n, err := plan.Parse(sql, s.adv.Cat)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if err := s.sendIngest(ingestMsg{plans: []*plan.Node{n}, sqls: []string{sql}}, true); err != nil {
			t.Fatalf("sendIngest %d: %v", i, err)
		}
	}
	// Drain immediately: Close must finish the queued appends before
	// returning, not abandon them.
	closeDurable(t, s, st)
	if got := s.window.Total(); got != seed+batches {
		t.Fatalf("window total after drain = %d, want %d", got, seed+batches)
	}

	rec, _, err := durable.Recover(dir, 0)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rec.WindowTotal != seed+batches {
		t.Fatalf("recovered total = %d, want %d (queued ingest lost from the WAL)", rec.WindowTotal, seed+batches)
	}
	for i := 0; i < batches; i++ {
		want := w.Queries[i%len(w.Queries)].SQL
		if got := rec.WindowSQL[int(seed)+i]; got != want {
			t.Fatalf("recovered window[%d] = %q, want %q", int(seed)+i, got, want)
		}
	}
}

// viewsBytes fetches the raw /v1/views response body.
func viewsBytes(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/v1/views")
	if err != nil {
		t.Fatalf("GET views: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read views: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("views status %d: %s", resp.StatusCode, buf.Bytes())
	}
	return buf.Bytes()
}

// estimateBytes posts a fixed estimate request and returns the raw
// response body (the byte-identity unit of the durability contract).
func estimateBytes(t *testing.T, url string, pairs []estimatePair) []byte {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/estimate", estimateRequest{Pairs: pairs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate status %d: %s", resp.StatusCode, body)
	}
	return body
}

// TestServeDurableRestartRoundTrip: a graceful stop and restart over the
// same data directory reproduces the window, view set, and estimates
// byte-identically, without re-running bootstrap.
func TestServeDurableRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := serveWK()

	s1, st1 := startDurable(t, dir)
	ts1 := httptest.NewServer(s1.Handler())

	// Ingest two queries and force a rotation so the durable state holds
	// a non-trivial history: seed ingest, generations 1 and 2.
	resp, body := postJSON(t, ts1.URL+"/v1/queries", ingestRequest{Queries: []string{w.Queries[0].SQL, w.Queries[1].SQL}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, body)
	}
	if resp, body = postJSON(t, ts1.URL+"/v1/advise", adviseRequest{Force: true}); resp.StatusCode != http.StatusOK {
		t.Fatalf("advise status %d: %s", resp.StatusCode, body)
	}

	pairs := []estimatePair{
		{Query: w.Queries[3].SQL, View: s1.gen.Load().views.Views[0].SQL},
		{Query: w.Queries[4].SQL, View: s1.gen.Load().views.Views[0].SQL},
	}
	wantViews := viewsBytes(t, ts1.URL)
	wantEst := estimateBytes(t, ts1.URL, pairs)
	_, wantSQLs := s1.window.SnapshotTagged()
	wantTotal := s1.window.Total()
	wantModelVer := s1.gen.Load().version

	ts1.Close()
	closeDurable(t, s1, st1)

	s2, st2 := startDurable(t, dir)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer closeDurable(t, s2, st2)

	if got := s2.gen.Load().views; got == nil || got.Version != 2 {
		t.Fatalf("restart view set = %+v, want recovered v2 (not re-bootstrapped)", got)
	}
	if got := s2.gen.Load().version; got != wantModelVer {
		t.Fatalf("restart model version = %d, want %d", got, wantModelVer)
	}
	_, gotSQLs := s2.window.SnapshotTagged()
	if !reflect.DeepEqual(gotSQLs, wantSQLs) {
		t.Fatalf("restart window diverged: %d vs %d entries", len(gotSQLs), len(wantSQLs))
	}
	if got := s2.window.Total(); got != wantTotal {
		t.Fatalf("restart window total = %d, want %d", got, wantTotal)
	}
	if gotViews := viewsBytes(t, ts2.URL); !bytes.Equal(gotViews, wantViews) {
		t.Fatalf("restart /v1/views diverged:\n pre: %s\npost: %s", wantViews, gotViews)
	}
	if gotEst := estimateBytes(t, ts2.URL, pairs); !bytes.Equal(gotEst, wantEst) {
		t.Fatalf("restart /v1/estimate diverged:\n pre: %s\npost: %s", wantEst, gotEst)
	}
}

// --- crash-recovery byte-identity harness ------------------------------

const (
	serveCrashHelperEnv = "AUTOVIEW_TEST_SERVE_CRASH_HELPER"
	serveCrashDirEnv    = "AUTOVIEW_TEST_SERVE_CRASH_DIR"
	serveCrashExitCode  = 137
)

// serveCrashIngestA and B are the scripted ingest batches (existing
// workload SQL, so the reference window is constructible without
// replaying anything).
func serveCrashIngestA() []string {
	w := serveWK()
	return []string{w.Queries[0].SQL, w.Queries[1].SQL}
}

func serveCrashIngestB() []string {
	return []string{serveWK().Queries[2].SQL}
}

// runServeCrashScript drives a scripted serving session against dir. The
// WAL record sequence it produces:
//
//	1  seed ingest                      4  generation 2 (forced advise)
//	2  generation 1 (bootstrap)         5  ingest B
//	3  ingest A
//
// Under AUTOVIEW_WAL_CRASHPOINT the process dies inside the WAL append
// of the chosen record; otherwise it drains and exits cleanly.
func runServeCrashScript(dir string) error {
	st, err := durable.Open(durableOpts(dir))
	if err != nil {
		return err
	}
	s := NewServer(serveWK(), serveCoreCfg(), Config{Parallelism: 1})
	if err := s.Start(context.Background(), st); err != nil {
		return err
	}
	ingest := func(sqls []string) error {
		plans := make([]*plan.Node, len(sqls))
		for i, sql := range sqls {
			if plans[i], err = plan.Parse(sql, s.adv.Cat); err != nil {
				return err
			}
		}
		done := make(chan struct{})
		if err := s.sendIngest(ingestMsg{plans: plans, sqls: sqls, done: done}, true); err != nil {
			return err
		}
		<-done
		return nil
	}
	if err := ingest(serveCrashIngestA()); err != nil {
		return fmt.Errorf("ingest A: %w", err)
	}
	if _, err := s.advise(context.Background(), "script", true); err != nil {
		return fmt.Errorf("advise: %w", err)
	}
	if err := ingest(serveCrashIngestB()); err != nil {
		return fmt.Errorf("ingest B: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		return err
	}
	return st.Close()
}

// TestServeCrashScriptHelper is the child-process entry point.
func TestServeCrashScriptHelper(t *testing.T) {
	if os.Getenv(serveCrashHelperEnv) != "1" {
		t.Skip("harness child entry point; run via TestServeCrashRecovery")
	}
	if err := runServeCrashScript(os.Getenv(serveCrashDirEnv)); err != nil {
		t.Fatal(err)
	}
}

func runServeCrashChild(t *testing.T, dir, crashpoint string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestServeCrashScriptHelper$", "-test.count=1")
	cmd.Env = append(os.Environ(),
		serveCrashHelperEnv+"=1", serveCrashDirEnv+"="+dir, durable.CrashpointEnv+"="+crashpoint)
	out, err := cmd.CombinedOutput()
	if crashpoint == "" {
		if err != nil {
			t.Fatalf("clean child failed: %v\n%s", err, out)
		}
		return
	}
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != serveCrashExitCode {
		t.Fatalf("crashpoint %s: child exit = %v, want code %d\n%s", crashpoint, err, serveCrashExitCode, out)
	}
}

// crashReference is everything the sweep compares against, captured once
// from an in-process never-crashed run of the same script.
type crashReference struct {
	seedSQLs []string
	pairs    []estimatePair
	// gens are the generations the reference published, in order:
	// bootstrap, then the forced advise.
	gens [2]crashGen
}

// crashGen is one published generation as a client observes it.
type crashGen struct {
	modelVer int
	views    *ViewSet // CreatedAt zeroed
	est      []byte   // the /v1/estimate body of pairs under its model
}

func zeroCreatedAt(vs *ViewSet) *ViewSet {
	if vs == nil {
		return nil
	}
	cp := *vs
	cp.CreatedAt = time.Time{}
	return &cp
}

// buildCrashReference runs the script in-process (no crashpoint) and
// captures the intermediate states every crash prefix must reproduce.
// Training, selection, and inference are all deterministic under a fixed
// seed, so these artifacts are byte-comparable across processes.
func buildCrashReference(t *testing.T) *crashReference {
	t.Helper()
	w := serveWK()
	ref := &crashReference{}
	for _, q := range w.Queries {
		ref.seedSQLs = append(ref.seedSQLs, q.SQL)
	}

	s, st := startDurable(t, t.TempDir())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer closeDurable(t, s, st)

	observe := func() crashGen {
		g := s.gen.Load()
		return crashGen{modelVer: g.version, views: zeroCreatedAt(g.views), est: estimateBytes(t, ts.URL, ref.pairs)}
	}
	boot := s.gen.Load().views
	ref.pairs = []estimatePair{
		{Query: w.Queries[3].SQL, View: boot.Views[0].SQL},
		{Query: w.Queries[4].SQL, View: boot.Views[0].SQL},
	}
	ref.gens[0] = observe()

	plans := make([]*plan.Node, len(serveCrashIngestA()))
	for i, sql := range serveCrashIngestA() {
		n, err := plan.Parse(sql, s.adv.Cat)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		plans[i] = n
	}
	done := make(chan struct{})
	if err := s.sendIngest(ingestMsg{plans: plans, sqls: serveCrashIngestA(), done: done}, true); err != nil {
		t.Fatalf("ingest A: %v", err)
	}
	<-done
	if _, err := s.advise(context.Background(), "reference", true); err != nil {
		t.Fatalf("advise: %v", err)
	}
	ref.gens[1] = observe()
	return ref
}

// crashExpect describes the reference state after a surviving record
// prefix, per the record map in runServeCrashScript: gen is nil before
// the bootstrap generation's record survives.
type crashExpect struct {
	window []string
	total  uint64
	gen    *crashGen
}

func (ref *crashReference) after(k int) crashExpect {
	e := crashExpect{}
	if k >= 1 {
		e.window = append(e.window, ref.seedSQLs...)
	}
	if k >= 3 {
		e.window = append(e.window, serveCrashIngestA()...)
	}
	if k >= 5 {
		e.window = append(e.window, serveCrashIngestB()...)
	}
	e.total = uint64(len(e.window))
	switch {
	case k >= 4:
		e.gen = &ref.gens[1]
	case k >= 2:
		e.gen = &ref.gens[0]
	}
	return e
}

// TestServeCrashRecovery kills the scripted serving session at record
// boundaries and mid-record, restarts a server over the surviving data
// directory, and asserts the recovered window, view set, and estimate
// responses are byte-identical to the never-crashed reference state
// after the surviving record prefix. Each generation is one record, so
// every prefix recovers a (model, view set) pair the reference
// published — never a model beside a view set it did not judge.
func TestServeCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a bootstrapping child process per crashpoint")
	}
	ref := buildCrashReference(t)

	type point struct {
		spec      string
		surviving int
	}
	var points []point
	for lsn := 1; lsn <= 5; lsn++ {
		points = append(points, point{spec: fmt.Sprintf("%d", lsn), surviving: lsn})
	}
	// Mid-record tears at the first record, the advise's generation, and
	// the final record (the exhaustive every-offset sweep lives in
	// internal/durable).
	for _, lsn := range []int{1, 4, 5} {
		points = append(points, point{spec: fmt.Sprintf("%d:9", lsn), surviving: lsn - 1})
	}

	for _, p := range points {
		p := p
		t.Run(p.spec, func(t *testing.T) {
			dir := t.TempDir()
			runServeCrashChild(t, dir, p.spec)

			s, st := startDurable(t, dir)
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			defer closeDurable(t, s, st)

			want := ref.after(p.surviving)
			_, gotSQLs := s.window.SnapshotTagged()
			if len(gotSQLs) != len(want.window) {
				t.Fatalf("window %d entries, want %d", len(gotSQLs), len(want.window))
			}
			for i := range want.window {
				if gotSQLs[i] != want.window[i] {
					t.Fatalf("window[%d] = %q, want %q", i, gotSQLs[i], want.window[i])
				}
			}
			if got := s.window.Total(); got != want.total {
				t.Fatalf("window total = %d, want %d", got, want.total)
			}

			g := s.gen.Load()
			if want.gen == nil {
				if g.m != nil || g.views != nil {
					t.Fatalf("prefix %d recovered model %d and view set %+v, want neither", p.surviving, g.version, g.views)
				}
				return
			}
			if g.version != want.gen.modelVer {
				t.Fatalf("model version = %d, want %d", g.version, want.gen.modelVer)
			}
			if !reflect.DeepEqual(zeroCreatedAt(g.views), want.gen.views) {
				t.Fatalf("view set diverged from reference prefix %d:\n got: %+v\nwant: %+v",
					p.surviving, g.views, want.gen.views)
			}
			if got := estimateBytes(t, ts.URL, ref.pairs); !bytes.Equal(got, want.gen.est) {
				t.Fatalf("estimates diverged from reference prefix %d:\n got: %s\nwant: %s",
					p.surviving, got, want.gen.est)
			}
		})
	}
}
