package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// testOpts returns fast-sync options over a fresh temp dir.
func testOpts(t *testing.T) Options {
	t.Helper()
	return Options{Dir: t.TempDir(), Fsync: FsyncAlways, SnapshotEvery: -1}
}

// mustOpen opens a store and fails the test on error.
func mustOpen(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// ingestN appends n single-query ingest records "q<base>".."q<base+n-1>".
func ingestN(t *testing.T, s *Store, base, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.AppendIngest([]string{fmt.Sprintf("q%d", base+i)}); err != nil {
			t.Fatalf("AppendIngest: %v", err)
		}
	}
}

// wantWindow asserts the recovered window is exactly q<from>..q<to>.
func wantWindow(t *testing.T, st *State, from, to int) {
	t.Helper()
	if st == nil {
		t.Fatalf("nil state, want window q%d..q%d", from, to)
	}
	n := to - from + 1
	if len(st.WindowSQL) != n {
		t.Fatalf("window %v, want %d entries q%d..q%d", st.WindowSQL, n, from, to)
	}
	for i := 0; i < n; i++ {
		if want := fmt.Sprintf("q%d", from+i); st.WindowSQL[i] != want {
			t.Fatalf("window[%d] = %q, want %q (full: %v)", i, st.WindowSQL[i], want, st.WindowSQL)
		}
	}
}

func TestWALRoundTrip(t *testing.T) {
	opts := testOpts(t)
	s := mustOpen(t, opts)
	if s.Recovered() != nil {
		t.Fatal("fresh dir reported recovered state")
	}
	ingestN(t, s, 0, 3)
	gen := GenerationRecord{
		Model:   ModelRecord{Path: "model-v1.ckpt", Scale: 2.5, Version: 1},
		ViewSet: json.RawMessage(`{"version":7}`),
	}
	if err := s.AppendGeneration(gen); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := mustOpen(t, opts)
	defer func() { _ = s2.Close() }() // read-only reopen; close error checked on the write path
	st := s2.Recovered()
	wantWindow(t, st, 0, 2)
	if st.WindowTotal != 3 {
		t.Fatalf("total = %d", st.WindowTotal)
	}
	if st.ModelPath != "model-v1.ckpt" || st.ModelScale != 2.5 || st.ModelVersion != 1 { // scale must round-trip bit-exactly
		t.Fatalf("model = %+v", st)
	}
	if string(st.ViewSet) != `{"version":7}` {
		t.Fatalf("viewset = %s", st.ViewSet)
	}
	if st.LSN != 4 {
		t.Fatalf("LSN = %d, want 4", st.LSN)
	}
}

// TestRecoverReadsLegacyRecords: a segment that logged each generation
// as the separate model and view-set records of earlier builds — a
// rollback as a model record alone — recovers the same state as the
// equivalent generation records.
func TestRecoverReadsLegacyRecords(t *testing.T) {
	ingest := []byte(`{"sqls":["q0","q1"]}`)
	model := func(v int, scale float64) ModelRecord {
		return ModelRecord{Path: ModelCheckpointName(v), Scale: scale, Version: v}
	}
	vs1, vs2 := json.RawMessage(`{"version":1,"views":["a"]}`), json.RawMessage(`{"version":2,"views":["b"]}`)
	mustJSON := func(v any) []byte {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	recoverSeg := func(frames func(seg []byte) []byte) *State {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), frames(appendHeader(nil)), 0o644); err != nil {
			t.Fatal(err)
		}
		st, _, err := Recover(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	legacy := recoverSeg(func(seg []byte) []byte {
		seg = appendFrame(seg, RecordIngest, ingest)
		seg = appendFrame(seg, RecordModel, mustJSON(model(1, 1.5))) // bootstrap
		seg = appendFrame(seg, RecordViewSet, vs1)
		seg = appendFrame(seg, RecordModel, mustJSON(model(2, 1.25))) // rollback
		seg = appendFrame(seg, RecordModel, mustJSON(model(3, 1.75))) // swap
		return appendFrame(seg, RecordViewSet, vs2)
	})
	gens := recoverSeg(func(seg []byte) []byte {
		seg = appendFrame(seg, RecordIngest, ingest)
		seg = appendFrame(seg, RecordGeneration, mustJSON(GenerationRecord{Model: model(1, 1.5), ViewSet: vs1}))
		seg = appendFrame(seg, RecordGeneration, mustJSON(GenerationRecord{Model: model(2, 1.25), ViewSet: vs1}))
		return appendFrame(seg, RecordGeneration, mustJSON(GenerationRecord{Model: model(3, 1.75), ViewSet: vs2}))
	})
	if legacy.LSN != 6 || gens.LSN != 4 {
		t.Fatalf("LSNs %d and %d, want 6 legacy records and 4 generation records", legacy.LSN, gens.LSN)
	}
	legacy.LSN, gens.LSN = 0, 0
	if !reflect.DeepEqual(legacy, gens) {
		t.Fatalf("legacy records recover %+v, generation records %+v", legacy, gens)
	}
}

func TestWALResumeAfterReopen(t *testing.T) {
	opts := testOpts(t)
	s := mustOpen(t, opts)
	ingestN(t, s, 0, 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and keep appending into the same segment.
	s = mustOpen(t, opts)
	ingestN(t, s, 2, 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	st, info, err := Recover(opts.Dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantWindow(t, st, 0, 3)
	if info.lastLSN != 4 {
		t.Fatalf("lastLSN = %d", info.lastLSN)
	}
	// All four records share one segment: nothing rotated.
	segs, err := listByLSN(opts.Dir, parseSegmentName)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v (err %v), want exactly one", segs, err)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	for _, cut := range []int{1, 4, 8, 9, 12} {
		opts := testOpts(t)
		s := mustOpen(t, opts)
		ingestN(t, s, 0, 3)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(opts.Dir, segmentName(1))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Find the offset of record 3 by scanning two records.
		off := headerSize
		for i := 0; i < 2; i++ {
			_, _, n, err := decodeFrame(data[off:])
			if err != nil {
				t.Fatal(err)
			}
			off += n
		}
		if err := os.WriteFile(path, data[:off+cut], 0o644); err != nil {
			t.Fatal(err)
		}

		st, _, err := Recover(opts.Dir, 0)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		wantWindow(t, st, 0, 1)
		if st.LSN != 2 {
			t.Fatalf("cut %d: LSN = %d", cut, st.LSN)
		}
		// Recovery physically truncated: the file now ends at the last
		// intact record, and appending resumes cleanly.
		if fi, err := os.Stat(path); err != nil || fi.Size() != int64(off) {
			t.Fatalf("cut %d: size %d, want %d (err %v)", cut, fi.Size(), off, err)
		}
		s = mustOpen(t, opts)
		ingestN(t, s, 2, 1)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		st, _, err = Recover(opts.Dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		wantWindow(t, st, 0, 2)
	}
}

func TestWALCorruptMiddleRecordTruncatesThere(t *testing.T) {
	opts := testOpts(t)
	s := mustOpen(t, opts)
	ingestN(t, s, 0, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(opts.Dir, segmentName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of record 2: its CRC fails, and replay treats
	// everything from it on as the torn tail (records 2 and 3 are gone).
	off := headerSize
	_, _, n, err := decodeFrame(data[off:])
	if err != nil {
		t.Fatal(err)
	}
	data[off+n+frameOverhead+2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, _, err := Recover(opts.Dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantWindow(t, st, 0, 0)
}

func TestWALGapBetweenSegmentsFails(t *testing.T) {
	opts := testOpts(t)
	s := mustOpen(t, opts)
	ingestN(t, s, 0, 3)
	snap := &Snapshot{LSN: s.LastLSN(), WindowSQL: []string{"q0", "q1", "q2"}, WindowTotal: 3}
	if err := s.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	ingestN(t, s, 3, 2) // records 4, 5 land in a fresh segment
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Losing the snapshot AND the first segment leaves records 4..5
	// dangling with nothing covering 1..3: recovery must fail loudly.
	if err := os.Remove(filepath.Join(opts.Dir, snapshotName(3))); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(opts.Dir, segmentName(1))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(opts.Dir, 0); !errors.Is(err, ErrGap) {
		t.Fatalf("err = %v, want ErrGap", err)
	}
}

func TestWALBadHeaderFails(t *testing.T) {
	opts := testOpts(t)
	s := mustOpen(t, opts)
	ingestN(t, s, 0, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(opts.Dir, segmentName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[4] = 99 // unknown format version
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(opts.Dir, 0); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("err = %v, want ErrBadSegment", err)
	}
}

func TestSnapshotRotationAndRetention(t *testing.T) {
	opts := testOpts(t)
	opts.Retain = 2
	s := mustOpen(t, opts)
	for round := 0; round < 4; round++ {
		ingestN(t, s, round*10, 2)
		snap := &Snapshot{LSN: s.LastLSN(), WindowSQL: []string{"w"}, WindowTotal: uint64(round)}
		if err := s.WriteSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		// A record after each snapshot forces the rotated segment open.
		ingestN(t, s, round*10+2, 1)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	snaps, err := listByLSN(opts.Dir, parseSnapshotName)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Fatalf("retained %d snapshots, want 2: %v", len(snaps), snaps)
	}
	segs, err := listByLSN(opts.Dir, parseSegmentName)
	if err != nil {
		t.Fatal(err)
	}
	// Segments wholly below the oldest retained snapshot are pruned.
	for _, first := range segs[:len(segs)-1] {
		if first+2 <= snaps[0] { // heuristic: each segment holds 3 records
			t.Fatalf("segment %d survived below oldest retained snapshot %d (segs %v)", first, snaps[0], segs)
		}
	}
	// And the survivors still recover to the latest state.
	st, _, err := Recover(opts.Dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.LSN != 12 {
		t.Fatalf("LSN = %d, want 12", st.LSN)
	}
	if got := st.WindowSQL[len(st.WindowSQL)-1]; got != "q32" {
		t.Fatalf("newest window entry %q, want q32", got)
	}
}

func TestSnapshotCorruptFallsBack(t *testing.T) {
	opts := testOpts(t)
	opts.Retain = 3
	s := mustOpen(t, opts)
	ingestN(t, s, 0, 2)
	if err := s.WriteSnapshot(&Snapshot{LSN: 2, WindowSQL: []string{"q0", "q1"}, WindowTotal: 2}); err != nil {
		t.Fatal(err)
	}
	ingestN(t, s, 2, 1)
	if err := s.WriteSnapshot(&Snapshot{LSN: 3, WindowSQL: []string{"q0", "q1", "q2"}, WindowTotal: 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest snapshot: recovery falls back to the older one
	// and replays the WAL records past it.
	if err := os.WriteFile(filepath.Join(opts.Dir, snapshotName(3)), []byte("{trunca"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, _, err := Recover(opts.Dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantWindow(t, st, 0, 2)
	if st.WindowTotal != 3 {
		t.Fatalf("total = %d", st.WindowTotal)
	}
}

func TestWindowCapClipsDuringReplay(t *testing.T) {
	opts := testOpts(t)
	s := mustOpen(t, opts)
	ingestN(t, s, 0, 10)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st, _, err := Recover(opts.Dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantWindow(t, st, 6, 9)
	if st.WindowTotal != 10 {
		t.Fatalf("total = %d, want 10 (clip must not change the lifetime count)", st.WindowTotal)
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncOff} {
		opts := testOpts(t)
		opts.Fsync = policy
		opts.FsyncEvery = time.Millisecond
		s := mustOpen(t, opts)
		ingestN(t, s, 0, 5)
		if err := s.Sync(); err != nil {
			t.Fatalf("%v: Sync: %v", policy, err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("%v: Close: %v", policy, err)
		}
		st, _, err := Recover(opts.Dir, 0)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		wantWindow(t, st, 0, 4)
	}
}

func TestParseFsync(t *testing.T) {
	for in, want := range map[string]FsyncPolicy{
		"": FsyncInterval, "interval": FsyncInterval,
		"always": FsyncAlways, "per-record": FsyncAlways,
		"off": FsyncOff, "none": FsyncOff,
	} {
		got, err := ParseFsync(in)
		if err != nil || got != want {
			t.Fatalf("ParseFsync(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseFsync("sometimes"); err == nil {
		t.Fatal("ParseFsync accepted garbage")
	}
}

func TestAppendAfterCloseErrors(t *testing.T) {
	s := mustOpen(t, testOpts(t))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendIngest([]string{"q"}); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := s.Sync(); err == nil {
		t.Fatal("sync after close succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestShouldSnapshotCadence(t *testing.T) {
	opts := testOpts(t)
	opts.SnapshotEvery = 3
	s := mustOpen(t, opts)
	ingestN(t, s, 0, 2)
	if s.ShouldSnapshot() {
		t.Fatal("2 records < 3 triggered a snapshot")
	}
	ingestN(t, s, 2, 1)
	if !s.ShouldSnapshot() {
		t.Fatal("3 records did not trigger a snapshot")
	}
	if err := s.WriteSnapshot(&Snapshot{LSN: s.LastLSN()}); err != nil {
		t.Fatal(err)
	}
	if s.ShouldSnapshot() {
		t.Fatal("fresh snapshot still wants another")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
