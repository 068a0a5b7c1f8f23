package obs

import "runtime/metrics"

// The Go runtime's own counters and gauges, bridged from runtime/metrics
// into the Default registry. They are read when a snapshot is taken — a
// /metrics scrape or a -stats report — and never on a request path.
var (
	rtGCCycles   = Default.Counter("runtime.gc.cycles", "GC cycles completed since the process started")
	rtHeapAllocs = Default.Counter("runtime.heap.alloc.bytes", "bytes allocated on the heap since the process started")
	rtHeapLive   = Default.Gauge("runtime.heap.live.bytes", "heap bytes the last GC marked live")
	rtGCCPU      = Default.Gauge("runtime.gc.cpu.seconds", "CPU seconds spent in the GC since the process started (only grows)")
	rtGoroutines = Default.Gauge("runtime.goroutines", "live goroutines")
)

// runtimeSamples are the runtime/metrics readRuntime reads, in the order
// it stores them.
var runtimeSamples = [...]string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/heap/live:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/sched/goroutines:goroutines",
}

func init() { Default.collect = readRuntime }

// readRuntime copies the runtime's current values into the bridged
// metrics.
func readRuntime() {
	var s [len(runtimeSamples)]metrics.Sample
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s[:])
	rtGCCycles.v.Store(int64(sampleValue(s[0])))
	rtHeapAllocs.v.Store(int64(sampleValue(s[1])))
	rtHeapLive.Set(sampleValue(s[2]))
	rtGCCPU.Set(sampleValue(s[3]))
	rtGoroutines.Set(sampleValue(s[4]))
}

// sampleValue is a scalar sample's value; 0 for a metric this runtime
// does not have.
func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}
