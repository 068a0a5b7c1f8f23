package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"autoview/internal/obs"
)

// fsyncDelay bounds how long an FsyncInterval log stays dirty: the first
// write after an fsync arms a one-shot timer that fsyncs when it fires.
const fsyncDelay = 50 * time.Millisecond

// segmentName returns the file name of the segment whose first record
// has the given LSN.
func segmentName(firstLSN uint64) string { return fmt.Sprintf("wal-%016x.log", firstLSN) }

// wal is the append side of the log. Every operation runs under mu, so
// LSN order is file order, and a record is in the segment file — the OS
// page cache, which survives a kill -9 — before append returns.
type wal struct {
	dir    string
	policy FsyncPolicy

	mu      sync.Mutex
	closed  bool
	nextLSN uint64
	f       *os.File    // current segment; nil until the next append opens one
	dirty   bool        // written but not yet fsynced
	timer   *time.Timer // armed FsyncInterval fsync; nil when none is pending
	frame   []byte      // encode scratch
	err     error       // sticky write error
}

// openWAL opens the log for appending. nextLSN is the first LSN to
// assign; resumePath (when non-empty) is the newest existing segment,
// already truncated past its last intact record, to continue appending to.
func openWAL(dir string, policy FsyncPolicy, nextLSN uint64, resumePath string) (*wal, error) {
	w := &wal{dir: dir, policy: policy, nextLSN: nextLSN}
	if resumePath != "" {
		f, err := os.OpenFile(resumePath, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			return nil, fmt.Errorf("durable: resume segment: %w", err)
		}
		w.f = f
	}
	return w, nil
}

// append assigns the next LSN and writes the framed record with one
// write. FsyncAlways fsyncs it before returning; FsyncInterval arms the
// timer that will. A failed write or fsync is returned here and by every
// later append, so the log stops instead of leaving a gap.
func (w *wal) append(t RecordType, payload []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, errors.New("durable: append after close")
	}
	if w.err != nil {
		return 0, w.err
	}
	lsn := w.nextLSN
	if w.f == nil {
		if err := w.openSegment(lsn); err != nil {
			return 0, w.fail(err)
		}
	}
	w.frame = appendFrame(w.frame[:0], t, payload)
	if _, err := w.f.Write(w.frame); err != nil {
		return 0, w.fail(err)
	}
	w.nextLSN++
	w.dirty = true
	obsAppends.Inc()
	obsBytes.Add(int64(len(w.frame)))
	switch w.policy {
	case FsyncAlways:
		if err := w.fsync(); err != nil {
			return 0, err
		}
	case FsyncInterval:
		if w.timer == nil {
			w.timer = time.AfterFunc(fsyncDelay, w.timedSync)
		}
	}
	return lsn, nil
}

// openSegment creates the segment whose first record is lsn through
// WriteFile — it exists with its whole header or not at all — and opens
// it for appending. Caller holds mu.
func (w *wal) openSegment(lsn uint64) error {
	path := filepath.Join(w.dir, segmentName(lsn))
	if err := WriteFile(path, appendHeader(nil)); err != nil {
		return fmt.Errorf("durable: create segment: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return fmt.Errorf("durable: open segment: %w", err)
	}
	w.f = f
	obsSegments.Inc()
	return nil
}

// lastLSN returns the most recently assigned LSN (0 before any append).
func (w *wal) lastLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN - 1
}

// sync fsyncs every record written so far (a no-op under FsyncOff, whose
// records are already with the OS) and reports the sticky error.
func (w *wal) sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("durable: sync after close")
	}
	if w.policy == FsyncOff {
		return w.err
	}
	return w.fsync()
}

// timedSync is the FsyncInterval timer's callback.
func (w *wal) timedSync() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.timer = nil
	_ = w.fsync() // sticky: the next append or sync returns it
}

// rotate ends the current segment; the next append opens a fresh one
// named by its LSN.
func (w *wal) rotate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.endSegment()
}

// close ends the current segment and refuses further appends.
// Idempotent; returns the sticky error.
func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.timer != nil {
		w.timer.Stop()
	}
	return w.endSegment()
}

// endSegment fsyncs (unless FsyncOff) and closes the current segment.
// Caller holds mu.
func (w *wal) endSegment() error {
	if w.f == nil {
		return w.err
	}
	var err error
	if w.policy != FsyncOff {
		err = w.fsync()
	}
	if cerr := w.f.Close(); err == nil && cerr != nil {
		err = w.fail(cerr)
	}
	w.f, w.dirty = nil, false
	return err
}

// fsync syncs the segment when it holds unsynced records. Caller holds
// mu.
func (w *wal) fsync() error {
	if w.err != nil || w.f == nil || !w.dirty {
		return w.err
	}
	if err := w.f.Sync(); err != nil {
		return w.fail(err)
	}
	obsFsyncs.Inc()
	w.dirty = false
	return nil
}

// fail records the first write error and returns it; every later append
// and sync returns it too.
func (w *wal) fail(err error) error {
	if w.err == nil {
		w.err = err
		obs.Error("durable.wal", "err", err)
	}
	return w.err
}
