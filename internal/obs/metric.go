package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing int64. All methods are lock-free
// and safe for concurrent use.
type Counter struct {
	v          atomic.Int64
	name, help string
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored to keep the counter monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Name returns the registered name.
func (c *Counter) Name() string { return c.name }

// Gauge is a float64 that can go up and down (last-write-wins Set). Safe
// for concurrent use.
type Gauge struct {
	bits       atomic.Uint64
	name, help string
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Name returns the registered name.
func (g *Gauge) Name() string { return g.name }

// atomicFloat is a CAS-accumulated float64.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) Value() float64 { return math.Float64frombits(f.bits.Load()) }

// DefBuckets are the default histogram bounds: latencies in seconds from
// 1µs to 100s, a decade apart. Span histograms use these.
var DefBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10, 100}

// Histogram counts observations into fixed buckets (cumulative counts are
// derived at snapshot/render time; the stored counts are per-bucket).
// Observe is lock-free and safe for concurrent use.
type Histogram struct {
	name, help string
	bounds     []float64      // ascending upper bounds; +Inf implicit
	counts     []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	sum        atomicFloat
	count      atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Name returns the registered name.
func (h *Histogram) Name() string { return h.name }
