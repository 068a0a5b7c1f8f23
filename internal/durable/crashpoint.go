package durable

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// CrashpointEnv is the environment variable the fault-injection harness
// sets to kill the process from inside a WAL append: "LSN" crashes right
// after the record with that LSN is fully on disk (a crash at a record
// boundary), and "LSN:SPLIT" writes only the first SPLIT bytes of that
// record's frame before dying (a torn write). The exit mimics a kill -9:
// every earlier append already wrote its record, so the simulated
// machine state is exactly "everything appended before the crashpoint is
// in the page cache".
const CrashpointEnv = "AUTOVIEW_WAL_CRASHPOINT"

// crashExitCode is what a SIGKILLed process reports (128+9); the harness
// asserts it to distinguish an injected crash from a real failure.
const crashExitCode = 137

// crashpoint is the parsed CrashpointEnv instruction.
type crashpoint struct {
	lsn   uint64
	split int // bytes of the frame to write before dying; <0 = whole record
}

// crashpointFromEnv parses CrashpointEnv. It returns nil when unset and
// panics on a malformed value: a typo in the harness must fail loudly,
// not silently run without fault injection.
func crashpointFromEnv() *crashpoint {
	v := os.Getenv(CrashpointEnv)
	if v == "" {
		return nil
	}
	lsnPart, splitPart, hasSplit := strings.Cut(v, ":")
	lsn, err := strconv.ParseUint(lsnPart, 10, 64)
	if err != nil || lsn == 0 {
		panic(fmt.Sprintf("durable: malformed %s=%q", CrashpointEnv, v))
	}
	cp := &crashpoint{lsn: lsn, split: -1}
	if hasSplit {
		split, err := strconv.Atoi(splitPart)
		if err != nil || split < 0 {
			panic(fmt.Sprintf("durable: malformed %s=%q", CrashpointEnv, v))
		}
		cp.split = split
	}
	return cp
}

// fire writes the (possibly truncated) frame straight to f, syncs so the
// bytes reach the simulated "surviving" state, and dies.
func (cp *crashpoint) fire(f *os.File, frame []byte) {
	cut := len(frame)
	if cp.split >= 0 && cp.split < cut {
		cut = cp.split
	}
	if _, err := f.Write(frame[:cut]); err != nil {
		panic(fmt.Sprintf("durable: crashpoint write: %v", err))
	}
	if err := f.Sync(); err != nil {
		panic(fmt.Sprintf("durable: crashpoint sync: %v", err))
	}
	os.Exit(crashExitCode)
}
