package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"autoview/internal/obs"
)

// snapFormatVersion guards the snapshot JSON schema.
const snapFormatVersion = 1

// Snapshot is a point-in-time capture of the advisor's serving state,
// covering every WAL record with LSN <= LSN. Recovery loads the newest
// intact snapshot and replays only the records after it.
type Snapshot struct {
	FormatVersion int       `json:"format_version"`
	LSN           uint64    `json:"lsn"`
	CreatedAt     time.Time `json:"created_at"`

	// WindowSQL is the rolling window's contents oldest-first, as the
	// SQL each query was ingested with; re-parsing reconstructs the
	// window byte-identically. WindowTotal is the lifetime ingest count.
	WindowSQL   []string `json:"window_sql"`
	WindowTotal uint64   `json:"window_total"`

	// ViewSet is the serving layer's versioned view set, opaque JSON
	// (nil when nothing has been advised yet).
	ViewSet json.RawMessage `json:"view_set,omitempty"`

	// ModelPath names the W-D checkpoint (relative to the data dir)
	// behind the active model, with its cost scale and version. Empty
	// when no model has been published.
	ModelPath    string  `json:"model_path,omitempty"`
	ModelScale   float64 `json:"model_scale,omitempty"`
	ModelVersion int     `json:"model_version,omitempty"`
}

// ModelRecord is the durable pointer to one set of W-D weights: the
// checkpoint, its cost scale and its version (the RecordModel payload).
type ModelRecord struct {
	Path    string  `json:"path"` // relative to the data dir
	Scale   float64 `json:"scale"`
	Version int     `json:"version"`
}

// GenerationRecord is the RecordGeneration payload: the whole serving
// state one publish installs. A zero Model means no weights; an empty
// ViewSet (the serving layer's JSON, opaque here), no view set yet.
type GenerationRecord struct {
	Model   ModelRecord     `json:"model"`
	ViewSet json.RawMessage `json:"view_set,omitempty"`
}

// ingestPayload is the RecordIngest payload.
type ingestPayload struct {
	SQLs []string `json:"sqls"`
}

func snapshotName(lsn uint64) string { return fmt.Sprintf("snap-%016x.json", lsn) }

// parseSnapshotName extracts the LSN from a snapshot file name.
func parseSnapshotName(name string) (uint64, bool) {
	rest, ok := strings.CutPrefix(name, "snap-")
	if !ok {
		return 0, false
	}
	rest, ok = strings.CutSuffix(rest, ".json")
	if !ok {
		return 0, false
	}
	lsn, err := strconv.ParseUint(rest, 16, 64)
	return lsn, err == nil
}

// parseSegmentName extracts the first LSN from a segment file name.
func parseSegmentName(name string) (uint64, bool) {
	rest, ok := strings.CutPrefix(name, "wal-")
	if !ok {
		return 0, false
	}
	rest, ok = strings.CutSuffix(rest, ".log")
	if !ok {
		return 0, false
	}
	lsn, err := strconv.ParseUint(rest, 16, 64)
	return lsn, err == nil
}

// loadSnapshot reads and validates one snapshot file.
func loadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("durable: snapshot %s: %w", filepath.Base(path), err)
	}
	if snap.FormatVersion != snapFormatVersion {
		return nil, fmt.Errorf("durable: snapshot %s: format version %d (this build reads %d)",
			filepath.Base(path), snap.FormatVersion, snapFormatVersion)
	}
	return &snap, nil
}

// listByLSN returns the LSNs parsed from directory entries matching the
// given parser, ascending.
func listByLSN(dir string, parse func(string) (uint64, bool)) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var lsns []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if lsn, ok := parse(e.Name()); ok {
			lsns = append(lsns, lsn)
		}
	}
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] < lsns[j] })
	return lsns, nil
}

// latestSnapshot loads the newest intact snapshot, falling back to older
// generations when the newest is unreadable (a half-written .tmp never
// has the final name, so this is defense in depth against bit rot, not
// the crash path). Returns nil when no snapshot loads.
func latestSnapshot(dir string) *Snapshot {
	lsns, err := listByLSN(dir, parseSnapshotName)
	if err != nil {
		return nil
	}
	for i := len(lsns) - 1; i >= 0; i-- {
		snap, err := loadSnapshot(filepath.Join(dir, snapshotName(lsns[i])))
		if err == nil {
			return snap
		}
		obs.Warn("durable.snapshot", "event", "skip_corrupt", "lsn", lsns[i], "err", err)
	}
	return nil
}

// pruneSnapshots keeps the newest retain snapshot generations plus every
// WAL segment still needed to recover from the oldest retained one, and
// deletes checkpoints older than any retained snapshot references.
func pruneSnapshots(dir string, retain int, modelKeep func(version int) bool) error {
	snaps, err := listByLSN(dir, parseSnapshotName)
	if err != nil {
		return err
	}
	if len(snaps) <= retain {
		return nil
	}
	for _, lsn := range snaps[:len(snaps)-retain] {
		if err := os.Remove(filepath.Join(dir, snapshotName(lsn))); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	oldest := snaps[len(snaps)-retain]

	// A segment is deletable when the segment after it starts at or
	// below oldest+1: every record in it is then covered by the oldest
	// retained snapshot.
	segs, err := listByLSN(dir, parseSegmentName)
	if err != nil {
		return err
	}
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1] <= oldest+1 {
			if err := os.Remove(filepath.Join(dir, segmentName(segs[i]))); err != nil && !errors.Is(err, os.ErrNotExist) {
				return err
			}
		}
	}

	if modelKeep != nil {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			v, ok := parseModelName(e.Name())
			if ok && !modelKeep(v) {
				if err := os.Remove(filepath.Join(dir, e.Name())); err != nil && !errors.Is(err, os.ErrNotExist) {
					return err
				}
			}
		}
	}
	return nil
}

// ModelCheckpointName is the data-dir file name for the version-N W-D
// checkpoint the serving layer persists on every model swap.
func ModelCheckpointName(version int) string { return fmt.Sprintf("model-v%d.ckpt", version) }

// parseModelName extracts the version from a checkpoint file name.
func parseModelName(name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, "model-v")
	if !ok {
		return 0, false
	}
	rest, ok = strings.CutSuffix(rest, ".ckpt")
	if !ok {
		return 0, false
	}
	v, err := strconv.Atoi(rest)
	return v, err == nil
}

// WriteFile writes data to path atomically and durably: a .tmp file is
// written and fsynced, renamed into place, and the directory fsynced so
// the name survives a crash. Either the complete file is visible under
// path or it never was.
func WriteFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(data)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		_ = os.Remove(tmp) // best effort; the write already failed
		return werr
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so renames and removals in it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}
