package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"testing"
	"time"
)

// The crash sweep plays a fixed script of WAL appends through a real
// Store and stops it at a crash point: right after record k, whole or
// cut back to its first bytes (a torn write), with the store dropped as
// a kill -9 leaves it. It then asserts recovery reconstructs exactly the
// reference state after the surviving record prefix — for every crash
// point. The kill test re-execs the test binary as a child that a real
// SIGKILL ends.

const (
	crashHelperEnv = "AUTOVIEW_TEST_CRASH_HELPER"
	crashDirEnv    = "AUTOVIEW_TEST_CRASH_DIR"
)

// crashOp is one scripted append: an ingest batch (t RecordIngest) or a
// published generation (t RecordGeneration).
type crashOp struct {
	t    RecordType
	sqls []string
	gen  GenerationRecord
}

// crashGen is a generation record over the version-v checkpoint.
func crashGen(v int, scale float64, viewset string) GenerationRecord {
	return GenerationRecord{
		Model:   ModelRecord{Path: ModelCheckpointName(v), Scale: scale, Version: v},
		ViewSet: json.RawMessage(viewset),
	}
}

// crashScript is the scripted session: ingest and generation records
// around a mid-script snapshot (taken after record 5), mirroring the
// serving layer's life cycle — a bootstrap publishes weights with
// views, a forced advise new weights with new views, a hot-reload new
// weights beside the same views.
func crashScript() []crashOp {
	return []crashOp{
		{t: RecordIngest, sqls: []string{"SELECT a FROM t1", "SELECT b FROM t1"}},
		{t: RecordIngest, sqls: []string{"SELECT c FROM t2"}},
		{t: RecordGeneration, gen: crashGen(1, 1.5, `{"version":1,"views":["view_t1"]}`)},
		{t: RecordIngest, sqls: []string{"SELECT d FROM t3", "SELECT e FROM t3", "SELECT f FROM t3"}},
		{t: RecordIngest, sqls: []string{"SELECT g FROM t4"}},
		{t: RecordGeneration, gen: crashGen(2, 1.75, `{"version":2,"views":["view_t3"]}`)},
		{t: RecordGeneration, gen: crashGen(3, 3.5, `{"version":2,"views":["view_t3"]}`)},
		{t: RecordIngest, sqls: []string{"SELECT h FROM t5"}},
		{t: RecordGeneration, gen: crashGen(4, 1.625, `{"version":3,"views":["view_t3","view_t5"]}`)},
		{t: RecordIngest, sqls: []string{"SELECT i FROM t5"}},
	}
}

// crashSnapshotAfter is the record count the scripted session snapshots
// behind (rotating the WAL), so crash points past it exercise
// snapshot-plus-tail recovery while earlier ones replay the log alone.
const crashSnapshotAfter = 5

// crashStateAfter folds the first k scripted records into a reference
// state, independently of the replay code under test.
func crashStateAfter(k int) *Snapshot {
	st := &Snapshot{LSN: uint64(k)}
	for _, op := range crashScript()[:k] {
		switch op.t {
		case RecordIngest:
			st.WindowSQL = append(st.WindowSQL, op.sqls...)
			st.WindowTotal += uint64(len(op.sqls))
		case RecordGeneration:
			st.Generation = op.gen
		}
	}
	return st
}

// playScript appends the script's first k records to s, taking the
// mid-script snapshot on the way, and returns the offset record k starts
// at in its segment.
func playScript(s *Store, k int) (start int64, err error) {
	for i, op := range crashScript()[:k] {
		if i == crashSnapshotAfter {
			if err := s.WriteSnapshot(crashStateAfter(i)); err != nil {
				return 0, fmt.Errorf("snapshot: %w", err)
			}
		}
		// A record starts where the open segment ends, or right after the
		// header of the segment its own append opens.
		start = headerSize
		if s.w.f != nil {
			fi, err := s.w.f.Stat()
			if err != nil {
				return 0, err
			}
			start = fi.Size()
		}
		switch op.t {
		case RecordIngest:
			err = s.AppendIngest(op.sqls)
		case RecordGeneration:
			err = s.AppendGeneration(op.gen)
		}
		if err != nil {
			return 0, fmt.Errorf("append %d: %w", i+1, err)
		}
	}
	return start, nil
}

// runCrashScript executes the whole scripted session against dir and
// closes the store.
func runCrashScript(dir string) error {
	s, err := Open(Options{Dir: dir, Fsync: FsyncInterval, SnapshotEvery: -1})
	if err != nil {
		return err
	}
	if _, err := playScript(s, len(crashScript())); err != nil {
		return err
	}
	return s.Close()
}

// crashAt leaves dir as a crash right after record k would: the script's
// first k records appended, the store dropped with neither Sync nor
// Close (its descriptor closed, its fsync timer stopped, as a dead
// process's are), and for split >= 0 the segment holding record k cut
// back to k's first split bytes.
func crashAt(t *testing.T, dir string, k, split int) {
	t.Helper()
	s, err := Open(Options{Dir: dir, Fsync: FsyncInterval, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	start, err := playScript(s, k)
	if err != nil {
		t.Fatal(err)
	}
	s.w.mu.Lock()
	if s.w.timer != nil {
		s.w.timer.Stop()
	}
	path := s.w.f.Name()
	err = s.w.f.Close()
	s.w.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if split >= 0 {
		if err := os.Truncate(path, start+int64(split)); err != nil {
			t.Fatal(err)
		}
	}
}

// compareState asserts got matches the reference state after k records.
func compareState(t *testing.T, label string, got *Snapshot, k int) {
	t.Helper()
	want := crashStateAfter(k)
	if got == nil {
		t.Fatalf("%s: nil state, want prefix %d", label, k)
	}
	if got.LSN != want.LSN {
		t.Fatalf("%s: LSN = %d, want %d", label, got.LSN, want.LSN)
	}
	if len(got.WindowSQL) != len(want.WindowSQL) {
		t.Fatalf("%s: window %v, want %v", label, got.WindowSQL, want.WindowSQL)
	}
	for i := range want.WindowSQL {
		if got.WindowSQL[i] != want.WindowSQL[i] {
			t.Fatalf("%s: window[%d] = %q, want %q", label, i, got.WindowSQL[i], want.WindowSQL[i])
		}
	}
	if got.WindowTotal != want.WindowTotal {
		t.Fatalf("%s: total = %d, want %d", label, got.WindowTotal, want.WindowTotal)
	}
	if string(got.Generation.ViewSet) != string(want.Generation.ViewSet) {
		t.Fatalf("%s: viewset = %s, want %s", label, got.Generation.ViewSet, want.Generation.ViewSet)
	}
	if got.Generation.Model != want.Generation.Model { // the scale must survive the JSON round trip bit-exactly
		t.Fatalf("%s: model = %+v, want %+v", label, got.Generation.Model, want.Generation.Model)
	}
}

// TestCrashScriptCleanReference proves the never-crashed session
// recovers to the full-script reference state — the baseline every
// crash point diffs against.
func TestCrashScriptCleanReference(t *testing.T) {
	dir := t.TempDir()
	if err := runCrashScript(dir); err != nil {
		t.Fatal(err)
	}
	st, _, err := Recover(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	compareState(t, "clean", st, len(crashScript()))
}

// TestCrashRecoverySweep crashes the scripted session at every record
// boundary and at several mid-record torn-write offsets, then asserts
// recovery reconstructs exactly the surviving record prefix and that
// appends resume cleanly afterwards.
func TestCrashRecoverySweep(t *testing.T) {
	// split -1 crashes after the record is fully durable (prefix includes
	// it); the others tear the frame inside the length prefix (1), at the
	// CRC boundary (4), just past the type byte (9), and mid-payload (12)
	// — every scripted frame is longer than 12 bytes, so each offset is a
	// genuine torn write losing the record.
	splits := []int{-1, 0, 1, 4, 9, 12}
	total := len(crashScript())
	for lsn := 1; lsn <= total; lsn++ {
		for _, split := range splits {
			spec := fmt.Sprintf("%d", lsn)
			surviving := lsn
			if split >= 0 {
				spec = fmt.Sprintf("%d:%d", lsn, split)
				surviving = lsn - 1
			}
			t.Run(spec, func(t *testing.T) {
				dir := t.TempDir()
				crashAt(t, dir, lsn, split)
				st, _, err := Recover(dir, 0)
				if err != nil {
					t.Fatalf("recover: %v", err)
				}
				compareState(t, "recovered", st, surviving)

				// The directory must accept appends again: reopen, log one
				// more ingest, and recover once more.
				s, err := Open(Options{Dir: dir, Fsync: FsyncAlways, SnapshotEvery: -1})
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				if err := s.AppendIngest([]string{"SELECT post FROM crash"}); err != nil {
					t.Fatal(err)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				st2, _, err := Recover(dir, 0)
				if err != nil {
					t.Fatalf("re-recover: %v", err)
				}
				if st2.LSN != uint64(surviving)+1 {
					t.Fatalf("post-append LSN = %d, want %d", st2.LSN, surviving+1)
				}
				if got := st2.WindowSQL[len(st2.WindowSQL)-1]; got != "SELECT post FROM crash" {
					t.Fatalf("post-append window tail = %q", got)
				}
			})
		}
	}
}

// killAppends is how many ingest records the kill child appends.
const killAppends = 200

func killSQL(i int) string { return fmt.Sprintf("SELECT k FROM t WHERE id = %d", i) }

// TestCrashKillHelper is the child of TestCrashAppendedRecordsSurviveKill:
// it appends killAppends records under FsyncInterval and SIGKILLs itself
// with neither Sync nor Close.
func TestCrashKillHelper(t *testing.T) {
	if os.Getenv(crashHelperEnv) != "kill" {
		t.Skip("harness child entry point; run via TestCrashAppendedRecordsSurviveKill")
	}
	s, err := Open(Options{Dir: os.Getenv(crashDirEnv), Fsync: FsyncInterval, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < killAppends; i++ {
		if err := s.AppendIngest([]string{killSQL(i)}); err != nil {
			t.Fatal(err)
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

// TestCrashAppendedRecordsSurviveKill: a record whose append returned
// survives a kill -9 of the appending process, under the default fsync
// policy and without any Sync, and the directory the kill leaves behind
// recovers. Ten children per run, each failure classified as records
// lost or directory unrecoverable.
func TestCrashAppendedRecordsSurviveKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns one child process per run")
	}
	const runs = 10
	var lost, unrecoverable int
	for run := 0; run < runs; run++ {
		dir := t.TempDir()
		cmd := exec.Command(os.Args[0], "-test.run=^TestCrashKillHelper$", "-test.count=1")
		cmd.Env = append(os.Environ(), crashHelperEnv+"=kill", crashDirEnv+"="+dir)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != -1 { // -1: ended by a signal
			t.Fatalf("run %d: child exit = %v, want death by SIGKILL\n%s", run, err, out)
		}
		st, _, err := Recover(dir, 0)
		if err != nil {
			unrecoverable++
			t.Logf("run %d: %v", run, err)
			continue
		}
		intact := st.LSN == killAppends && len(st.WindowSQL) == killAppends
		for i := 0; intact && i < killAppends; i++ {
			intact = st.WindowSQL[i] == killSQL(i)
		}
		if !intact {
			lost++
			t.Logf("run %d: recovered LSN %d, %d of %d records", run, st.LSN, len(st.WindowSQL), killAppends)
		}
	}
	if lost+unrecoverable > 0 {
		t.Fatalf("%d of %d runs failed: %d lost appended records, %d left a directory Recover rejects",
			lost+unrecoverable, runs, lost, unrecoverable)
	}
}
