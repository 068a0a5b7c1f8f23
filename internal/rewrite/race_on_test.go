//go:build race

package rewrite_test

// raceEnabled trims the workload sweep of the differential oracle to JOB:
// Rewrite spawns no goroutine, so the race detector has nothing to find
// in it and only makes the sweep an order of magnitude slower.
const raceEnabled = true
