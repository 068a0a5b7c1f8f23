// Package durable is the advisor's persistence spine: an append-only
// write-ahead log plus point-in-time snapshots, so a restarted
// viewserverd rejoins with a warm rolling window, the current versioned
// view set, and a pointer to the last published W-D checkpoint instead
// of relearning the workload from an empty ring buffer.
//
// Layout of a data directory:
//
//	wal-<first-lsn>.log   append-only segments of CRC32C-framed records
//	snap-<lsn>.json       point-in-time snapshots (atomic tmp+rename)
//	model-v<N>.ckpt       W-D checkpoints referenced by generation records and snapshots
//
// Every record carries a CRC32C over its type+payload and is
// length-prefixed; each segment opens with a versioned header. Replay
// verifies both and truncates a torn tail (a crash mid-append) instead
// of failing, while a gap *between* segments — which can only mean real
// corruption, not a crash — fails recovery loudly. Records are assigned
// monotonically increasing LSNs; snapshots record the LSN their state
// covers, replay resumes right after it, and segments wholly below the
// oldest retained snapshot are pruned.
//
// An append writes its record to the segment file before it returns, so
// an appended record survives a kill -9 (the page cache outlives the
// process). The fsync policy decides what survives a power loss:
// per-record for strict durability, within 50ms (the default) to
// amortize, or off to leave syncing to the OS. A write error is returned
// by the append that hit it and by every later one. See SERVING.md
// "Durability".
package durable

import (
	"errors"
	"fmt"
	"strings"

	"autoview/internal/obs"
)

// Durability metrics (see OBSERVABILITY.md).
var (
	obsAppends   = obs.Default.Counter("durable.wal.appends", "records appended to the write-ahead log")
	obsBytes     = obs.Default.Counter("durable.wal.bytes", "bytes written to the write-ahead log")
	obsFsyncs    = obs.Default.Counter("durable.wal.fsyncs", "fsync calls issued by the WAL")
	obsSegments  = obs.Default.Counter("durable.wal.segments", "WAL segments opened (rotations + initial)")
	obsTruncated = obs.Default.Counter("durable.wal.truncated_bytes", "torn-tail bytes truncated from the WAL on recovery")
	obsReplayed  = obs.Default.Counter("durable.wal.replayed", "records replayed from the WAL during recovery")
	obsSnapshots = obs.Default.Counter("durable.snapshot.writes", "snapshots written")
	obsSnapBytes = obs.Default.Gauge("durable.snapshot.bytes", "size of the most recent snapshot")
	obsSnapLSN   = obs.Default.Gauge("durable.snapshot.lsn", "LSN covered by the most recent snapshot")
)

// FsyncPolicy selects when the WAL calls fsync.
type FsyncPolicy int

const (
	// FsyncInterval fsyncs within 50ms of a write: at most that window
	// of appended records is exposed to a power loss. The default.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways fsyncs every record before its append returns.
	FsyncAlways
	// FsyncOff never fsyncs: appended records survive a process kill
	// but not a power loss.
	FsyncOff
)

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncOff:
		return "off"
	default:
		return "interval"
	}
}

// ParseFsync maps the -fsync flag values onto a policy.
func ParseFsync(s string) (FsyncPolicy, error) {
	switch strings.ToLower(s) {
	case "", "interval":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	case "off":
		return FsyncOff, nil
	default:
		return 0, fmt.Errorf("durable: unknown fsync policy %q (want always, interval, or off)", s)
	}
}

// Options tunes a Store. Dir is required; everything else has defaults.
type Options struct {
	// Dir is the data directory (created if missing).
	Dir string
	// Fsync selects the WAL sync policy.
	Fsync FsyncPolicy
	// SnapshotEvery is the record count between automatic snapshots
	// (ShouldSnapshot turns true past it). 0 selects the default 1024;
	// negative disables automatic snapshots (explicit calls still work).
	SnapshotEvery int
	// WindowCap clips the recovered window to the newest WindowCap
	// queries during replay (0 means unbounded).
	WindowCap int
}

func (o Options) withDefaults() (Options, error) {
	if o.Dir == "" {
		return o, errors.New("durable: Options.Dir is required")
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 1024
	}
	return o, nil
}
