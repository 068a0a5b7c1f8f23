// Package testutil holds helpers that several packages' tests share.
package testutil

import (
	"runtime"
	"runtime/debug"
)

// Mallocs returns how many heap objects runs calls of f allocate in
// total, after one more call that is not counted, on one P as
// testing.AllocsPerRun measures them — but not averaged into an
// integer, which reads an occasional allocation as 0 — and with the
// collector off, whose cycles empty the sync.Pools that hold warm
// scratch.
func Mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
