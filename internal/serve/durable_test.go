package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
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
	s := NewServer(serveWK(), serveCoreCfgPar(1), Config{})
	if err := s.Start(st); err != nil {
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
	s := NewServer(serveWK(), serveCoreCfgPar(1), Config{})
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

	if err := s.Start(nil); err != nil {
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

// ingestSQL parses sqls and ingests them as one batch, as POST
// /v1/queries does.
func ingestSQL(s *Server, sqls []string) error {
	plans := make([]*plan.Node, len(sqls))
	for i, sql := range sqls {
		n, err := plan.Parse(sql, s.adv.Cat)
		if err != nil {
			return err
		}
		plans[i] = n
	}
	_, err := s.ingest(plans, sqls)
	return err
}

// postStatus posts an ingest body from any goroutine (postJSON may only
// fail the test from the test goroutine) and returns the status and the
// error code of a non-2xx reply.
func postStatus(url string, sqls []string) (int, string, error) {
	raw, err := json.Marshal(ingestRequest{Queries: sqls})
	if err != nil {
		return 0, "", err
	}
	resp, err := http.Post(url+"/v1/queries", "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	var envelope errorResponse
	if resp.StatusCode >= 300 {
		if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
			return resp.StatusCode, "", err
		}
	}
	return resp.StatusCode, envelope.Error.Code, nil
}

// copyDataDir copies the flat data directory src, as a crash at this
// instant would leave it, and returns the copy.
func copyDataDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			t.Fatalf("data dir entry %s is not a regular file", e.Name())
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestIngestRepliesAfterAppend: POST /v1/queries answers 202 only once
// its queries are in the window and in the WAL. While the test holds
// durMu (which every append takes) no 202 may arrive; after it lets go,
// the accepted queries are in the window total and in what Recover
// reads from a copy of the data directory taken at that moment.
func TestIngestRepliesAfterAppend(t *testing.T) {
	dir := t.TempDir()
	s, st := startDurable(t, dir)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer closeDurable(t, s, st)
	sqls := serveCrashIngestA()
	before := s.window.Total()

	type reply struct {
		status int
		err    error
	}
	replied := make(chan reply, 1)
	s.durMu.Lock()
	go func() {
		status, _, err := postStatus(ts.URL, sqls)
		replied <- reply{status, err}
	}()
	select {
	case r := <-replied:
		s.durMu.Unlock()
		t.Fatalf("ingest replied %d (err %v) while its append was blocked", r.status, r.err)
	case <-time.After(300 * time.Millisecond):
	}
	s.durMu.Unlock()
	r := <-replied
	if r.err != nil || r.status != http.StatusAccepted {
		t.Fatalf("ingest = %d (err %v), want 202", r.status, r.err)
	}

	want := before + uint64(len(sqls))
	if got := s.window.Total(); got != want {
		t.Fatalf("window total after 202 = %d, want %d", got, want)
	}
	rec, _, err := durable.Recover(copyDataDir(t, dir), 0)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rec.WindowTotal != want {
		t.Fatalf("recovered total = %d, want %d (the 202 came before the WAL append)", rec.WindowTotal, want)
	}
	if tail := rec.WindowSQL[len(rec.WindowSQL)-len(sqls):]; !reflect.DeepEqual(tail, sqls) {
		t.Fatalf("recovered window ends %q, want %q", tail, sqls)
	}
}

// TestIngestFailedAppendAnswers503: when the WAL refuses an append, the
// ingest answers 503 durable_write_failed and the window stays as it
// was; the drain then reports the failure too.
func TestIngestFailedAppendAnswers503(t *testing.T) {
	s, st := startDurable(t, t.TempDir())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if err := st.Close(); err != nil { // every later append fails
		t.Fatalf("store close: %v", err)
	}
	before := s.window.Total()
	status, code, err := postStatus(ts.URL, serveCrashIngestA())
	if err != nil || status != http.StatusServiceUnavailable || code != "durable_write_failed" {
		t.Fatalf("ingest over a failed WAL = %d %q (err %v), want 503 durable_write_failed", status, code, err)
	}
	if got := s.window.Total(); got != before {
		t.Fatalf("window total = %d after a failed append, want %d", got, before)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err == nil {
		t.Fatal("Close over a failed WAL reported a clean drain")
	}
}

// raceSQL is a distinct, parseable query per (writer, request).
func raceSQL(writer, i int) string {
	return fmt.Sprintf("select key, val from p02_fact1 where cat = %d and val < %d", writer, i)
}

// TestIngestRacesClose: writers POST /v1/queries while Close runs.
// Every reply is 202 or 503 shutting_down, and the WAL the drain leaves
// holds every query answered 202 exactly once, in the window after the
// seed, and nothing else.
func TestIngestRacesClose(t *testing.T) {
	dir := t.TempDir()
	s, st := startDurable(t, dir)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	seed := s.window.Total()

	// writers*perWriter stays below the window's capacity beyond the
	// seed, so the final snapshot still holds every accepted query.
	const writers, perWriter = 4, 100
	var (
		mu       sync.Mutex
		accepted = map[string]int{}
		bad      []string
		wg       sync.WaitGroup
	)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				sql := raceSQL(g, i)
				status, code, err := postStatus(ts.URL, []string{sql})
				mu.Lock()
				switch {
				case err == nil && status == http.StatusAccepted:
					accepted[sql]++
				case err == nil && status == http.StatusServiceUnavailable && code == "shutting_down":
					mu.Unlock()
					return
				default:
					bad = append(bad, fmt.Sprintf("%s: %d %q (err %v)", sql, status, code, err))
				}
				mu.Unlock()
			}
		}(g)
	}
	for deadline := time.Now().Add(10 * time.Second); s.window.Total() < seed+40 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	closeDurable(t, s, st)
	wg.Wait()
	if len(bad) > 0 {
		t.Fatalf("%d replies neither 202 nor 503 shutting_down, first: %s", len(bad), bad[0])
	}
	if len(accepted) == 0 {
		t.Fatal("no ingest was accepted before Close")
	}
	t.Logf("%d queries accepted before Close", len(accepted))

	rec, _, err := durable.Recover(dir, 0)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got, want := rec.WindowTotal, seed+uint64(len(accepted)); got != want {
		t.Fatalf("recovered total = %d, want seed %d + %d accepted", got, seed, len(accepted))
	}
	for _, sql := range rec.WindowSQL[len(rec.WindowSQL)-len(accepted):] {
		accepted[sql]--
	}
	for sql, n := range accepted {
		if n != 0 {
			t.Fatalf("accepted %q is in the recovered WAL %d times, want once", sql, 1-n)
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

// TestServeCheckpointSaveFailure: a forced advise whose checkpoint
// cannot be saved (a directory sits at model-v2.ckpt, so the rename
// fails) still serves its new weights as model version 2, but the WAL
// gets no generation record for it: a restart — from the log alone, or
// from the snapshot a drain writes — recovers without error the last
// pair that was saved whole: model version 1, with v1's estimate bytes
// and v1's view set, and the window intact. (When the failed publish
// still logged its record, the restart paired v1's weights with v2's
// view set, which no publish ever served.)
func TestServeCheckpointSaveFailure(t *testing.T) {
	for _, drain := range []bool{false, true} {
		t.Run(fmt.Sprintf("drain=%v", drain), func(t *testing.T) {
			dir := t.TempDir()
			w := serveWK()
			s1, st1 := startDurable(t, dir)
			ts1 := httptest.NewServer(s1.Handler())
			defer ts1.Close()
			pairs := []estimatePair{
				{Query: w.Queries[3].SQL, View: s1.gen.Load().views.Views[0].SQL},
				{Query: w.Queries[4].SQL, View: s1.gen.Load().views.Views[0].SQL},
			}
			wantEst := estimateBytes(t, ts1.URL, pairs)
			wantViews := viewsBytes(t, ts1.URL)

			if err := os.Mkdir(filepath.Join(dir, durable.ModelCheckpointName(2)), 0o755); err != nil {
				t.Fatal(err)
			}
			if resp, body := postJSON(t, ts1.URL+"/v1/queries", ingestRequest{Queries: serveCrashIngestA()}); resp.StatusCode != http.StatusAccepted {
				t.Fatalf("ingest status %d: %s", resp.StatusCode, body)
			}
			if resp, body := postJSON(t, ts1.URL+"/v1/advise", adviseRequest{Force: true}); resp.StatusCode != http.StatusOK {
				t.Fatalf("advise status %d: %s", resp.StatusCode, body)
			}
			var health healthResponse
			if getJSON(t, ts1.URL+"/v1/healthz", &health); health.ModelVersion != 2 {
				t.Fatalf("live model version = %d after the failed save, want 2", health.ModelVersion)
			}
			var est estimateResponse
			if err := json.Unmarshal(estimateBytes(t, ts1.URL, pairs), &est); err != nil || est.ModelVersion != 2 {
				t.Fatalf("live estimate = %+v (err %v), want model_version 2", est, err)
			}
			if bytes.Equal(viewsBytes(t, ts1.URL), wantViews) {
				t.Fatal("the forced advise kept v1's view set: the test cannot tell the pairs apart")
			}
			_, wantSQLs := s1.window.SnapshotTagged()
			wantTotal := s1.window.Total()

			if drain {
				closeDurable(t, s1, st1)
			} else if err := st1.Close(); err != nil {
				// Stop the log without the drain's snapshot, so the
				// restart replays the WAL.
				t.Fatalf("store close: %v", err)
			}
			s2, st2 := startDurable(t, dir)
			ts2 := httptest.NewServer(s2.Handler())
			defer ts2.Close()
			defer closeDurable(t, s2, st2)
			if got := s2.gen.Load().version; got != 1 {
				t.Fatalf("recovered model version = %d, want 1 (the last saved checkpoint)", got)
			}
			if got := estimateBytes(t, ts2.URL, pairs); !bytes.Equal(got, wantEst) {
				t.Fatalf("recovered estimates differ from v1's:\n got: %s\nwant: %s", got, wantEst)
			}
			if got := viewsBytes(t, ts2.URL); !bytes.Equal(got, wantViews) {
				t.Fatalf("recovered view set is not v1's:\n got: %s\nwant: %s", got, wantViews)
			}
			if _, gotSQLs := s2.window.SnapshotTagged(); !reflect.DeepEqual(gotSQLs, wantSQLs) {
				t.Fatalf("recovered window diverged: %d vs %d entries", len(gotSQLs), len(wantSQLs))
			}
			if got := s2.window.Total(); got != wantTotal {
				t.Fatalf("recovered window total = %d, want %d", got, wantTotal)
			}
		})
	}
}

// --- crash-recovery byte-identity harness ------------------------------

const (
	serveCrashHelperEnv = "AUTOVIEW_TEST_SERVE_CRASH_HELPER"
	serveCrashDirEnv    = "AUTOVIEW_TEST_SERVE_CRASH_DIR"
	// serveCrashPointEnv names the sweep child's crash point: "K" dies
	// right after WAL record K is written, "K:SPLIT" after cutting it
	// back to its first SPLIT bytes (a torn write).
	serveCrashPointEnv = "AUTOVIEW_TEST_SERVE_CRASHPOINT"
	serveCrashExitCode = 137 // what a SIGKILLed process reports (128+9)
	// walHeaderSize is the header every WAL segment opens with (4-byte
	// magic, format version, 3 reserved bytes): a segment's first record
	// starts right after it.
	walHeaderSize = 8
)

// crashingStore is the store the sweep child serves through. Right
// after record lsn is written it exits with serveCrashExitCode, first
// cutting the record to its first split bytes when split >= 0. The
// process dies inside the append, so nothing the server does after it —
// a checkpoint save, the generation's Sync — reaches the directory.
type crashingStore struct {
	*durable.Store
	lsn   uint64
	split int
}

func (c *crashingStore) AppendIngest(sqls []string) error {
	return c.crashAfter(func() error { return c.Store.AppendIngest(sqls) })
}

func (c *crashingStore) AppendGeneration(rec durable.GenerationRecord) error {
	return c.crashAfter(func() error { return c.Store.AppendGeneration(rec) })
}

// crashAfter runs one append and dies if it wrote record lsn.
func (c *crashingStore) crashAfter(appendRecord func() error) error {
	seg, end := newestSegment(c.Dir())
	if err := appendRecord(); err != nil || c.LastLSN() != c.lsn {
		return err
	}
	if c.split >= 0 {
		// The record starts where the segment ended, or right after the
		// header of the segment its own append opened.
		path, _ := newestSegment(c.Dir())
		if path != seg {
			end = walHeaderSize
		}
		if err := os.Truncate(path, end+int64(c.split)); err != nil {
			panic(err)
		}
	}
	os.Exit(serveCrashExitCode)
	return nil
}

// newestSegment returns the path and size of dir's newest WAL segment,
// or "" when it has none. Segment names are fixed-width hex LSNs, so the
// last in Glob's sorted order is the newest.
func newestSegment(dir string) (string, int64) {
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(paths) == 0 {
		return "", 0
	}
	fi, err := os.Stat(paths[len(paths)-1])
	if err != nil {
		panic(err)
	}
	return paths[len(paths)-1], fi.Size()
}

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
// The process dies inside the append of the record spec names (see
// serveCrashPointEnv); without the crash it drains and exits cleanly.
func runServeCrashScript(dir, spec string) error {
	lsnPart, splitPart, torn := strings.Cut(spec, ":")
	lsn, err := strconv.ParseUint(lsnPart, 10, 64)
	if err != nil {
		return fmt.Errorf("crash point %q: %w", spec, err)
	}
	split := -1
	if torn {
		if split, err = strconv.Atoi(splitPart); err != nil {
			return fmt.Errorf("crash point %q: %w", spec, err)
		}
	}
	st, err := durable.Open(durableOpts(dir))
	if err != nil {
		return err
	}
	s := NewServer(serveWK(), serveCoreCfgPar(1), Config{})
	if err := s.start(&crashingStore{Store: st, lsn: lsn, split: split}, st.Recovered()); err != nil {
		return err
	}
	if err := ingestSQL(s, serveCrashIngestA()); err != nil {
		return fmt.Errorf("ingest A: %w", err)
	}
	if _, err := s.advise("script", true); err != nil {
		return fmt.Errorf("advise: %w", err)
	}
	if err := ingestSQL(s, serveCrashIngestB()); err != nil {
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
	if err := runServeCrashScript(os.Getenv(serveCrashDirEnv), os.Getenv(serveCrashPointEnv)); err != nil {
		t.Fatal(err)
	}
}

// runServeCrashChild re-execs the test binary running the scripted
// session against dir, and requires it to die at crash point spec.
func runServeCrashChild(t *testing.T, dir, spec string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestServeCrashScriptHelper$", "-test.count=1")
	cmd.Env = append(os.Environ(),
		serveCrashHelperEnv+"=1", serveCrashDirEnv+"="+dir, serveCrashPointEnv+"="+spec)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != serveCrashExitCode {
		t.Fatalf("crash point %s: child exit = %v, want code %d\n%s", spec, err, serveCrashExitCode, out)
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

// buildCrashReference runs the script in-process (no crash point) and
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

	if err := ingestSQL(s, serveCrashIngestA()); err != nil {
		t.Fatalf("ingest A: %v", err)
	}
	if _, err := s.advise("reference", true); err != nil {
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
		t.Skip("spawns a bootstrapping child process per crash point")
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

// serveKillBatches is how many ingest batches the kill child has
// answered 202 when it SIGKILLs itself.
const serveKillBatches = 20

// serveKillBatch is the kill child's i-th ingest batch.
func serveKillBatch(i int) []string { return []string{raceSQL(i, 0), raceSQL(i, 1)} }

// TestServeCrashKillHelper is the child of
// TestServeCrashAcceptedIngestSurvivesKill: it serves a durable server
// (FsyncInterval) over HTTP, ingests serveKillBatches batches, and
// SIGKILLs itself right after the last 202, with neither Sync nor Close.
func TestServeCrashKillHelper(t *testing.T) {
	if os.Getenv(serveCrashHelperEnv) != "kill" {
		t.Skip("harness child entry point; run via TestServeCrashAcceptedIngestSurvivesKill")
	}
	s, _ := startDurable(t, os.Getenv(serveCrashDirEnv))
	ts := httptest.NewServer(s.Handler())
	for i := 0; i < serveKillBatches; i++ {
		if resp, body := postJSON(t, ts.URL+"/v1/queries", ingestRequest{Queries: serveKillBatch(i)}); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	self, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := self.Kill(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Minute) // the signal lands first
}

// TestServeCrashAcceptedIngestSurvivesKill: an ingest that answered 202
// survives a kill -9 of the serving process under the default fsync
// policy, with no drain. Ten children per run; each failure is
// classified as batches lost or a directory Recover rejects.
func TestServeCrashAcceptedIngestSurvivesKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a bootstrapping child process per run")
	}
	seed := len(serveWK().Queries)
	var want []string
	for i := 0; i < serveKillBatches; i++ {
		want = append(want, serveKillBatch(i)...)
	}
	const runs = 10
	var lost, unrecoverable int
	for run := 0; run < runs; run++ {
		dir := t.TempDir()
		cmd := exec.Command(os.Args[0], "-test.run=^TestServeCrashKillHelper$", "-test.count=1")
		cmd.Env = append(os.Environ(), serveCrashHelperEnv+"=kill", serveCrashDirEnv+"="+dir)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != -1 { // -1: ended by a signal
			t.Fatalf("run %d: child exit = %v, want death by SIGKILL\n%s", run, err, out)
		}
		rec, _, err := durable.Recover(dir, 0)
		if err != nil {
			unrecoverable++
			t.Logf("run %d: %v", run, err)
			continue
		}
		got := rec.WindowSQL[min(seed, len(rec.WindowSQL)):]
		if !reflect.DeepEqual(got, want) {
			lost++
			t.Logf("run %d: recovered %d of the %d accepted queries", run, len(got), len(want))
		}
	}
	if lost+unrecoverable > 0 {
		t.Fatalf("%d of %d runs failed: %d lost accepted batches, %d left a directory Recover rejects",
			lost+unrecoverable, runs, lost, unrecoverable)
	}
}
