package durable

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"autoview/internal/obs"
)

// apply folds one WAL record into the state. windowCap > 0 clips the
// window to its newest windowCap entries, mirroring ring eviction.
func (st *Snapshot) apply(t RecordType, payload []byte, windowCap int) error {
	switch t {
	case RecordIngest:
		var p ingestPayload
		if err := json.Unmarshal(payload, &p); err != nil {
			return fmt.Errorf("durable: ingest record: %w", err)
		}
		st.WindowSQL = append(st.WindowSQL, p.SQLs...)
		st.WindowTotal += uint64(len(p.SQLs))
		if windowCap > 0 && len(st.WindowSQL) > 2*windowCap {
			// Compact lazily: keeping up to 2x capacity bounds both the
			// copy frequency and the slack memory during long replays.
			st.WindowSQL = append([]string(nil), st.WindowSQL[len(st.WindowSQL)-windowCap:]...)
		}
	case RecordGeneration:
		var g GenerationRecord
		if err := json.Unmarshal(payload, &g); err != nil {
			return fmt.Errorf("durable: generation record: %w", err)
		}
		st.Generation = g
	default:
		return fmt.Errorf("durable: unknown record type %d", t)
	}
	return nil
}

// clip trims the window to its final capacity after replay.
func (st *Snapshot) clip(windowCap int) {
	if windowCap > 0 && len(st.WindowSQL) > windowCap {
		st.WindowSQL = append([]string(nil), st.WindowSQL[len(st.WindowSQL)-windowCap:]...)
	}
}

// recoveryInfo is what Open needs beyond the state: where appends
// resume.
type recoveryInfo struct {
	lastLSN    uint64 // highest durable LSN (0 when none)
	snapLSN    uint64 // LSN of the snapshot recovery started from
	resumePath string // newest segment to keep appending to ("" = none)
	fresh      bool   // no snapshot and no records: a brand-new dir
}

// Recover reconstructs the state a data directory holds, as a Snapshot
// whose LSN is the last record folded in: the newest intact snapshot
// plus a replay of every WAL record after it, with the torn tail of the
// newest segment truncated (physically — the file is cut at the last
// intact record so appends can resume). A gap between segments or inside
// a non-final segment fails with ErrGap: that shape cannot come from a
// crash, only from lost or corrupted files.
func Recover(dir string, windowCap int) (*Snapshot, *recoveryInfo, error) {
	defer obs.StartSpan("durable.recover")()
	st := latestSnapshot(dir)
	if st == nil {
		st = &Snapshot{}
	}
	info := &recoveryInfo{snapLSN: st.LSN, lastLSN: st.LSN}

	segs, err := listByLSN(dir, parseSegmentName)
	if err != nil {
		return nil, nil, err
	}
	replayed := int64(0)
	var next uint64 // expected first LSN of the following segment
	for i, first := range segs {
		path := filepath.Join(dir, segmentName(first))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		// Another format fails here, not as the gap its skipped
		// (unreadable) snapshots would otherwise leave.
		if err := checkHeader(data); err != nil {
			return nil, nil, err
		}
		// Continuity: each segment must pick up exactly where the
		// previous one ended — except that a forward jump is legal when
		// the snapshot covers every skipped LSN (a tail truncated after
		// the snapshot was taken). The oldest segment may start anywhere
		// at or below the snapshot boundary; earlier history is pruned.
		if i == 0 {
			if first > info.snapLSN+1 {
				return nil, nil, fmt.Errorf("%w: oldest segment starts at %d, snapshot covers %d", ErrGap, first, info.snapLSN)
			}
		} else if first != next && !(first > next && first <= info.snapLSN+1) {
			return nil, nil, fmt.Errorf("%w: segment starts at %d, want %d (snapshot covers %d)",
				ErrGap, first, next, info.snapLSN)
		}
		lsn := first - 1
		consumed, clean, err := scanSegment(data, func(t RecordType, payload []byte) error {
			lsn++
			if lsn <= info.snapLSN {
				return nil // already folded into the snapshot
			}
			replayed++
			return st.apply(t, payload, windowCap)
		})
		if err != nil {
			return nil, nil, err
		}
		if !clean && i == len(segs)-1 {
			// Torn tail of the newest segment: the expected shape of a
			// crash mid-append. Cut the file at the last intact record so
			// appends can resume. A torn tail in an older segment is only
			// legal when the next segment's continuity check above proves
			// the snapshot covers the loss; otherwise it fails as a gap.
			torn := int64(len(data) - consumed)
			if err := os.Truncate(path, int64(consumed)); err != nil {
				return nil, nil, fmt.Errorf("durable: truncate torn tail: %w", err)
			}
			obsTruncated.Add(torn)
			obs.Warn("durable.recover", "event", "torn_tail_truncated", "segment", segmentName(first), "bytes", torn)
		}
		next = lsn + 1
		if i == len(segs)-1 {
			info.resumePath = path
		}
	}
	if next > 0 && next-1 > info.lastLSN {
		info.lastLSN = next - 1
	}
	if next > 0 && next-1 < info.snapLSN {
		// The WAL ends before the snapshot's coverage: legal (those
		// records' effects are in the snapshot), but appends must not
		// reuse LSNs the snapshot already claims.
		info.resumePath = "" // rotate: the stale segment stays as history
	}
	st.LSN = info.lastLSN
	st.clip(windowCap)
	info.fresh = info.snapLSN == 0 && len(segs) == 0
	obsReplayed.Add(replayed)
	obs.Info("durable.recover", "snapshot_lsn", info.snapLSN, "replayed", replayed,
		"last_lsn", info.lastLSN, "window", len(st.WindowSQL), "fresh", info.fresh)
	return st, info, nil
}

// Store is the serving layer's handle on durability: an open WAL for
// appends plus the state recovered at Open time.
type Store struct {
	opts      Options
	w         *wal
	recovered *Snapshot

	mu          sync.Mutex // serializes snapshots, lastSnapLSN and kept
	lastSnapLSN uint64
	// kept is the model version each retained snapshot references, by
	// ascending LSN: what pruning needs to know of them, read once at
	// Open and kept up to date by WriteSnapshot.
	kept []keptSnapshot
}

// keptSnapshot is one retained snapshot's LSN and the checkpoint
// version it references; 0 when it references none or did not load.
type keptSnapshot struct {
	lsn     uint64
	version int
}

// Open recovers dir (creating it if missing) and opens the WAL for
// appending. Recovered returns the reconstructed state, or nil when the
// directory held none.
func Open(opts Options) (*Store, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	st, info, err := Recover(opts.Dir, opts.WindowCap)
	if err != nil {
		return nil, err
	}
	w, err := openWAL(opts.Dir, opts.Fsync, info.lastLSN+1, info.resumePath)
	if err != nil {
		return nil, err
	}
	s := &Store{opts: opts, w: w, lastSnapLSN: info.snapLSN, kept: keptSnapshots(opts.Dir)}
	if !info.fresh {
		s.recovered = st
	}
	return s, nil
}

// Recovered returns the state reconstructed at Open, or nil for a fresh
// directory.
func (s *Store) Recovered() *Snapshot { return s.recovered }

// Dir returns the data directory.
func (s *Store) Dir() string { return s.opts.Dir }

// LastLSN returns the most recently assigned LSN.
func (s *Store) LastLSN() uint64 { return s.w.lastLSN() }

// AppendIngest logs a batch of ingested query SQL.
func (s *Store) AppendIngest(sqls []string) error {
	payload, err := json.Marshal(ingestPayload{SQLs: sqls})
	if err != nil {
		return err
	}
	_, err = s.w.append(RecordIngest, payload)
	return err
}

// AppendGeneration logs one published generation.
func (s *Store) AppendGeneration(rec GenerationRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	_, err = s.w.append(RecordGeneration, payload)
	return err
}

// Sync fsyncs every record appended before it (unless the policy is
// FsyncOff) and returns the log's sticky write error, if any.
func (s *Store) Sync() error { return s.w.sync() }

// ShouldSnapshot reports that SnapshotEvery records have accumulated
// since the last snapshot.
func (s *Store) ShouldSnapshot() bool {
	if s.opts.SnapshotEvery <= 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.lastLSN() >= s.lastSnapLSN+uint64(s.opts.SnapshotEvery)
}

// WriteSnapshot persists a snapshot with WriteFile, named by its LSN.
// snap.LSN must be the store's LastLSN captured atomically with the
// state (the caller holds whatever lock orders its appends). The WAL is
// synced first so the snapshot never claims coverage of records that
// could still be lost, the log rotates so a fresh segment starts after
// the snapshot point, and all but the newest retainSnapshots snapshots
// (plus segments and checkpoints wholly below the oldest retained one)
// are pruned.
func (s *Store) WriteSnapshot(snap *Snapshot) error {
	defer obs.StartSpan("durable.snapshot")()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.sync(); err != nil {
		return err
	}
	snap.FormatVersion = snapFormatVersion
	data, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("durable: marshal snapshot: %w", err)
	}
	if err := WriteFile(filepath.Join(s.opts.Dir, snapshotName(snap.LSN)), data); err != nil {
		return fmt.Errorf("durable: write snapshot: %w", err)
	}
	obsSnapshots.Inc()
	obsSnapBytes.Set(float64(len(data)))
	obsSnapLSN.Set(float64(snap.LSN))
	s.lastSnapLSN = snap.LSN
	s.keep(keptSnapshot{lsn: snap.LSN, version: snap.Generation.Model.Version})
	if err := s.w.rotate(); err != nil {
		return err
	}
	minVersion := s.minKeptModelVersion()
	if err := pruneSnapshots(s.opts.Dir, func(v int) bool { return v >= minVersion }); err != nil {
		obs.Warn("durable.snapshot", "event", "prune_failed", "err", err)
	}
	return nil
}

// keptSnapshots reads the model version of each snapshot in dir that
// pruning retains (the newest retainSnapshots).
func keptSnapshots(dir string) []keptSnapshot {
	lsns, err := listByLSN(dir, parseSnapshotName)
	if err != nil {
		return nil
	}
	if len(lsns) > retainSnapshots {
		lsns = lsns[len(lsns)-retainSnapshots:]
	}
	kept := make([]keptSnapshot, 0, retainSnapshots+1)
	for _, lsn := range lsns {
		k := keptSnapshot{lsn: lsn}
		if snap, err := loadSnapshot(filepath.Join(dir, snapshotName(lsn))); err == nil {
			k.version = snap.Generation.Model.Version
		}
		kept = append(kept, k)
	}
	return kept
}

// keep records a snapshot just written. Its LSN is the log's last, so
// it is the newest; it replaces a kept one of the same LSN (the file
// was overwritten), and only the newest retainSnapshots stay, as on
// disk once pruning has run.
func (s *Store) keep(k keptSnapshot) {
	if n := len(s.kept); n > 0 && s.kept[n-1].lsn == k.lsn {
		s.kept[n-1] = k
	} else {
		s.kept = append(s.kept, k)
	}
	if n := len(s.kept); n > retainSnapshots {
		s.kept = append(s.kept[:0], s.kept[n-retainSnapshots:]...)
	}
}

// minKeptModelVersion is the smallest checkpoint version any
// retained snapshot references; older checkpoints are unreachable.
// Unversioned (0) references — and snapshots that did not load at
// Open — keep everything, erring on the safe side.
func (s *Store) minKeptModelVersion() int {
	min := 0
	for _, k := range s.kept {
		if k.version == 0 {
			return 0
		}
		if min == 0 || k.version < min {
			min = k.version
		}
	}
	return min
}

// Close fsyncs the WAL (unless the policy is FsyncOff) and closes it.
func (s *Store) Close() error { return s.w.close() }
