package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
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
func wantWindow(t *testing.T, st *Snapshot, from, to int) {
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
	if st.Generation.Model != gen.Model { // scale must round-trip bit-exactly
		t.Fatalf("model = %+v", st.Generation.Model)
	}
	if string(st.Generation.ViewSet) != `{"version":7}` {
		t.Fatalf("viewset = %s", st.Generation.ViewSet)
	}
	if st.LSN != 4 {
		t.Fatalf("LSN = %d, want 4", st.LSN)
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

// dirFiles maps each file in dir to its contents.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	paths, _ := filepath.Glob(filepath.Join(dir, "*")) // the pattern is well-formed
	files := map[string]string{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files[filepath.Base(path)] = string(data)
	}
	return files
}

// TestWALBadHeaderFails: a data directory of format 1 or an unknown one
// fails Recover and Open with ErrBadSegment naming both versions, and
// leaves every file as it was. Its snapshots are of that format too and
// its oldest segment is pruned, so the refusal must come from the header,
// not read as a gap or a torn tail.
func TestWALBadHeaderFails(t *testing.T) {
	for _, version := range []byte{1, 99} {
		opts := testOpts(t)
		s := mustOpen(t, opts)
		for round := 0; round < 3; round++ {
			ingestN(t, s, 2*round, 2)
			if err := s.WriteSnapshot(&Snapshot{LSN: s.LastLSN()}); err != nil {
				t.Fatal(err)
			}
		}
		ingestN(t, s, 6, 1)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		for name, data := range dirFiles(t, opts.Dir) {
			if _, ok := parseSegmentName(name); ok {
				data = data[:4] + string(version) + data[5:]
			} else {
				data = strings.Replace(data, `"format_version":2`, fmt.Sprintf(`"format_version":%d`, version), 1)
			}
			if err := os.WriteFile(filepath.Join(opts.Dir, name), []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		before := dirFiles(t, opts.Dir)
		if _, ok := before[segmentName(1)]; ok {
			t.Fatal("segment 1 survived: the directory is not pruned")
		}

		_, _, rerr := Recover(opts.Dir, 0)
		_, oerr := Open(opts)
		want := fmt.Sprintf("format version %d (this build reads 2)", version)
		for _, err := range []error{rerr, oerr} {
			if !errors.Is(err, ErrBadSegment) || !strings.Contains(err.Error(), want) {
				t.Fatalf("err = %v, want ErrBadSegment naming %q", err, want)
			}
		}
		if after := dirFiles(t, opts.Dir); !reflect.DeepEqual(after, before) {
			t.Fatalf("version %d: the refusal changed the directory", version)
		}
	}
}

func TestSnapshotRotationAndRetention(t *testing.T) {
	opts := testOpts(t)
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

// TestSnapshotKeptVersionsMatchDisk: the model versions the store keeps
// in memory for the retained snapshots, and the checkpoints pruning
// deletes by them, are what reading every retained snapshot back from
// disk decides, across a run of snapshots (repeated, unversioned and
// descending versions among them, and two that overwrite the newest
// snapshot's file), a reopen, and a reopen whose newest snapshot no
// longer loads. The checkpoints on disk are checked after every
// snapshot, so right after the overwrite that raises the oldest kept
// version (0 → 6) the checkpoints below it must be gone.
func TestSnapshotKeptVersionsMatchDisk(t *testing.T) {
	opts := testOpts(t)
	// diskMin is the on-disk computation: the smallest version the
	// newest retainSnapshots snapshots reference, 0 when one references
	// none or does not load.
	diskMin := func() int {
		t.Helper()
		lsns, err := listByLSN(opts.Dir, parseSnapshotName)
		if err != nil {
			t.Fatal(err)
		}
		if len(lsns) > retainSnapshots {
			lsns = lsns[len(lsns)-retainSnapshots:]
		}
		min := 0
		for _, lsn := range lsns {
			snap, err := loadSnapshot(filepath.Join(opts.Dir, snapshotName(lsn)))
			if err != nil || snap.Generation.Model.Version == 0 {
				return 0
			}
			if v := snap.Generation.Model.Version; min == 0 || v < min {
				min = v
			}
		}
		return min
	}
	ckpts := map[int]bool{} // the checkpoints pruning must have left
	checkpoints := func() map[int]bool {
		t.Helper()
		entries, err := os.ReadDir(opts.Dir)
		if err != nil {
			t.Fatal(err)
		}
		out := map[int]bool{}
		for _, e := range entries {
			if v, ok := parseModelName(e.Name()); ok {
				out[v] = true
			}
		}
		return out
	}
	s := mustOpen(t, opts)
	// snapshot writes one of version, after a new record unless again
	// (which overwrites the newest snapshot's file).
	snapshot := func(version int, again bool) {
		t.Helper()
		if version > 0 {
			if err := os.WriteFile(filepath.Join(opts.Dir, ModelCheckpointName(version)), []byte("w"), 0o644); err != nil {
				t.Fatal(err)
			}
			ckpts[version] = true
		}
		if !again {
			ingestN(t, s, 0, 1)
		}
		// The checkpoint pass runs on every snapshot, an overwrite of the
		// newest one's file included, which deletes no snapshot but may
		// raise the oldest version the retained ones reference.
		snap := &Snapshot{LSN: s.LastLSN(), Generation: GenerationRecord{Model: ModelRecord{Version: version}}}
		if err := s.WriteSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		want := diskMin()
		if got := s.minKeptModelVersion(); got != want {
			t.Fatalf("after a snapshot of version %d: kept versions %v give %d, the snapshots on disk %d", version, s.kept, got, want)
		}
		for v := range ckpts {
			if want > 0 && v < want {
				delete(ckpts, v)
			}
		}
		if got := checkpoints(); !reflect.DeepEqual(got, ckpts) {
			t.Fatalf("after a snapshot of version %d: checkpoints %v on disk, want %v", version, got, ckpts)
		}
	}
	reopen := func() {
		t.Helper()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s = mustOpen(t, opts)
		if got, want := s.minKeptModelVersion(), diskMin(); got != want {
			t.Fatalf("after a reopen: kept versions %v give %d, the snapshots on disk %d", s.kept, got, want)
		}
	}
	for _, v := range []int{1, 1, 2, 0, 3, 5, 4} {
		snapshot(v, false)
	}
	snapshot(0, true)
	snapshot(6, true)
	reopen()
	for _, v := range []int{6, 7, 8} {
		snapshot(v, false)
	}
	lsns, err := listByLSN(opts.Dir, parseSnapshotName)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(opts.Dir, snapshotName(lsns[len(lsns)-1])), []byte("{trunca"), 0o644); err != nil {
		t.Fatal(err)
	}
	reopen()
	if got := s.minKeptModelVersion(); got != 0 {
		t.Fatalf("a retained snapshot does not load, yet the kept versions %v give %d", s.kept, got)
	}
	for _, v := range []int{9, 10, 10} {
		snapshot(v, false)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotCorruptFallsBack(t *testing.T) {
	opts := testOpts(t)
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

// TestFsyncIntervalTimer: under FsyncInterval an append that no Sync
// follows is fsynced by the one-shot timer, which then disarms.
func TestFsyncIntervalTimer(t *testing.T) {
	opts := testOpts(t)
	opts.Fsync = FsyncInterval
	s := mustOpen(t, opts)
	defer func() { _ = s.Close() }() // nothing appended after the poll; the fsync is what is under test
	ingestN(t, s, 0, 1)
	for deadline := time.Now().Add(20 * fsyncDelay); ; time.Sleep(fsyncDelay / 10) {
		s.w.mu.Lock()
		pending := s.w.dirty || s.w.timer != nil
		s.w.mu.Unlock()
		if !pending {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("record still unsynced %v after the append", 20*fsyncDelay)
		}
	}
}

func TestParseFsync(t *testing.T) {
	for in, want := range map[string]FsyncPolicy{
		"": FsyncInterval, "interval": FsyncInterval,
		"always": FsyncAlways, "off": FsyncOff,
	} {
		got, err := ParseFsync(in)
		if err != nil || got != want {
			t.Fatalf("ParseFsync(%q) = %v, %v", in, got, err)
		}
	}
	// Only the values the -fsync help names parse.
	for _, in := range []string{"sometimes", "record", "per-record", "none"} {
		if _, err := ParseFsync(in); err == nil {
			t.Fatalf("ParseFsync accepted %q", in)
		}
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

// TestWALConcurrentAppends races four appenders against a goroutine
// that syncs and snapshots, with the FsyncInterval timer live under both
// and Close right behind the last append. Snapshots follow the
// WriteSnapshot contract: the state is captured under the lock that
// orders it against appends (held shared by the appenders, so they still
// race each other into the log). Recovery must yield LSNs 1..200 with
// every record exactly once.
func TestWALConcurrentAppends(t *testing.T) {
	const appenders, perAppender = 4, 50
	const total = appenders * perAppender
	opts := testOpts(t)
	opts.Fsync = FsyncInterval
	s := mustOpen(t, opts)

	var (
		order sync.RWMutex // appends shared, state capture exclusive
		byLSN [total + 1]string
		wg    sync.WaitGroup
		errs  = make(chan error, appenders+1)
	)
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perAppender; i++ {
				sql := fmt.Sprintf("g%d-%d", g, i)
				payload, err := json.Marshal(ingestPayload{SQLs: []string{sql}})
				if err != nil {
					errs <- err
					return
				}
				order.RLock()
				lsn, err := s.w.append(RecordIngest, payload)
				if err == nil {
					byLSN[lsn] = sql
				}
				order.RUnlock()
				if err != nil {
					errs <- err
					return
				}
				if i%5 == 4 {
					time.Sleep(fsyncDelay / 10) // the run outlasts the timer: it fires between appends
				}
			}
		}(g)
	}
	stop := make(chan struct{})
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Sync(); err != nil {
				errs <- err
				return
			}
			order.Lock()
			lsn := s.LastLSN()
			window := append([]string(nil), byLSN[1:lsn+1]...)
			order.Unlock()
			if err := s.WriteSnapshot(&Snapshot{LSN: lsn, WindowSQL: window, WindowTotal: lsn}); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-snapDone
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st, _, err := Recover(opts.Dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.LSN != total || st.WindowTotal != total || len(st.WindowSQL) != total {
		t.Fatalf("recovered LSN %d, total %d, window %d; want %d of each", st.LSN, st.WindowTotal, len(st.WindowSQL), total)
	}
	// Every append got its own LSN slot, so matching slot by slot means
	// each distinct record comes back exactly once, in LSN order.
	for i, sql := range st.WindowSQL {
		if want := byLSN[i+1]; sql != want {
			t.Fatalf("LSN %d recovered %q, appended %q", i+1, sql, want)
		}
	}
}
