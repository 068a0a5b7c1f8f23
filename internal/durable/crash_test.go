package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"testing"
)

// The crash harness re-execs the test binary as a child running a fixed
// script of WAL appends with AUTOVIEW_WAL_CRASHPOINT set, so the writer
// goroutine kills the process at an exact record boundary (or mid-record
// for torn writes). The parent then recovers the directory and asserts
// the reconstructed state equals the in-memory reference state after the
// surviving record prefix — for every crashpoint.

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
// behind (rotating the WAL), so crashpoints past it exercise
// snapshot-plus-tail recovery while earlier ones replay the log alone.
const crashSnapshotAfter = 5

// crashStateAfter folds the first k scripted records into a reference
// state, independently of the replay code under test.
func crashStateAfter(k int) *State {
	st := &State{LSN: uint64(k)}
	for _, op := range crashScript()[:k] {
		switch op.t {
		case RecordIngest:
			st.WindowSQL = append(st.WindowSQL, op.sqls...)
			st.WindowTotal += uint64(len(op.sqls))
		case RecordGeneration:
			m := op.gen.Model
			st.ModelPath, st.ModelScale, st.ModelVersion = m.Path, m.Scale, m.Version
			st.ViewSet = op.gen.ViewSet
		}
	}
	return st
}

// runCrashScript executes the scripted session against dir. Under a
// crashpoint the process dies inside a WAL append and never returns.
func runCrashScript(dir string) error {
	s, err := Open(Options{Dir: dir, Fsync: FsyncInterval, SnapshotEvery: -1})
	if err != nil {
		return err
	}
	for i, op := range crashScript() {
		switch op.t {
		case RecordIngest:
			err = s.AppendIngest(op.sqls)
		case RecordGeneration:
			err = s.AppendGeneration(op.gen)
		}
		if err != nil {
			return fmt.Errorf("append %d: %w", i+1, err)
		}
		if i+1 == crashSnapshotAfter {
			ref := crashStateAfter(crashSnapshotAfter)
			snap := &Snapshot{
				LSN:       uint64(crashSnapshotAfter),
				WindowSQL: ref.WindowSQL, WindowTotal: ref.WindowTotal,
				ViewSet:   ref.ViewSet,
				ModelPath: ref.ModelPath, ModelScale: ref.ModelScale, ModelVersion: ref.ModelVersion,
			}
			if err := s.WriteSnapshot(snap); err != nil {
				return fmt.Errorf("snapshot: %w", err)
			}
		}
	}
	return s.Close()
}

// TestCrashScriptHelper is the child-process entry point; it only runs
// when re-execed by the harness with the helper env set.
func TestCrashScriptHelper(t *testing.T) {
	if os.Getenv(crashHelperEnv) != "1" {
		t.Skip("harness child entry point; run via TestCrashRecoverySweep")
	}
	if err := runCrashScript(os.Getenv(crashDirEnv)); err != nil {
		t.Fatal(err)
	}
}

// runCrashChild re-execs the test binary running the scripted session
// against dir. crashpoint "" expects a clean exit; otherwise the child
// must die with the injected-kill exit code.
func runCrashChild(t *testing.T, dir, crashpoint string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestCrashScriptHelper$", "-test.count=1")
	cmd.Env = append(os.Environ(), crashHelperEnv+"=1", crashDirEnv+"="+dir, CrashpointEnv+"="+crashpoint)
	out, err := cmd.CombinedOutput()
	if crashpoint == "" {
		if err != nil {
			t.Fatalf("clean child failed: %v\n%s", err, out)
		}
		return
	}
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != crashExitCode {
		t.Fatalf("crashpoint %s: child exit = %v, want code %d\n%s", crashpoint, err, crashExitCode, out)
	}
}

// compareState asserts got matches the reference state after k records.
func compareState(t *testing.T, label string, got *State, k int) {
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
	if string(got.ViewSet) != string(want.ViewSet) {
		t.Fatalf("%s: viewset = %s, want %s", label, got.ViewSet, want.ViewSet)
	}
	if got.ModelPath != want.ModelPath || got.ModelVersion != want.ModelVersion ||
		got.ModelScale != want.ModelScale { // the scale must survive the JSON round trip bit-exactly
		t.Fatalf("%s: model = %q v%d scale %v, want %q v%d scale %v", label,
			got.ModelPath, got.ModelVersion, got.ModelScale, want.ModelPath, want.ModelVersion, want.ModelScale)
	}
}

// TestCrashScriptCleanReference proves the never-crashed session
// recovers to the full-script reference state — the baseline every
// crashpoint case diffs against.
func TestCrashScriptCleanReference(t *testing.T) {
	dir := t.TempDir()
	runCrashChild(t, dir, "")
	st, _, err := Recover(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	compareState(t, "clean", st, len(crashScript()))
}

// TestCrashRecoverySweep kills a child at every record boundary and at
// several mid-record torn-write offsets, then asserts recovery
// reconstructs exactly the surviving record prefix and that appends
// resume cleanly afterwards.
func TestCrashRecoverySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns one child process per crashpoint")
	}
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
				runCrashChild(t, dir, spec)
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
