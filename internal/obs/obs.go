// Package obs is the system's observability layer: counters, gauges and
// fixed-bucket histograms behind a Registry, a span/stage-timer API, and a
// leveled structured event logger. It is dependency-free (standard library
// only) and built so that instrumentation left in hot paths costs nearly
// nothing when nobody is watching:
//
//   - Counters and gauges are single atomic operations, always on.
//   - Spans (obs.Time, obs.StartSpan, and a Span resolved once by
//     Registry.Span) check an atomic enabled flag first and skip the
//     clock reads entirely when the registry is disabled; a resolved
//     span's Begin and End allocate nothing either way
//     (TestSpanHandleAllocs).
//   - Events check an atomic level gate and are silent by default.
//
// Instrumented packages register their metrics against the package-level
// Default registry at init time and record into them directly:
//
//	var execCount = obs.Default.Counter("engine.exec.count", "plan executions")
//	...
//	execCount.Inc()
//
// Stage timings use the span helpers:
//
//	obs.Time("advisor.select", func() { sel = pickViews(p) })
//
// which records into the histogram "advisor.select.seconds" when enabled.
//
// Binaries opt in with obs.Enable() (wired to their -stats flag) and/or
// obs.Serve (wired to -obs-addr), which exposes /metrics in Prometheus
// text format, /debug/vars (expvar) and /debug/pprof. See OBSERVABILITY.md
// at the repository root for the full metric and span catalog.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Default is the process-wide registry every instrumented package records
// into. It starts disabled: counters and gauges still count (they are
// plain atomics), but spans skip their clock reads and Snapshot-driven
// sinks are simply never invoked.
var Default = NewRegistry()

// Enable turns on span timing (and anything else gated on the Default
// registry's enabled flag).
func Enable() { Default.SetEnabled(true) }

// Disable turns span timing back off.
func Disable() { Default.SetEnabled(false) }

// Enabled reports whether the Default registry is enabled.
func Enabled() bool { return Default.Enabled() }

// Registry holds named metrics. All methods are safe for concurrent use;
// metric registration is get-or-create, so concurrent registrations of
// the same name share one metric.
type Registry struct {
	enabled atomic.Bool

	mu     sync.Mutex
	ctrs   map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
	spans  map[string]*Span

	// collect, when set, refreshes metrics whose source lives outside
	// the registry (the runtime's, for Default) before a snapshot.
	collect func()
}

// NewRegistry returns an empty, disabled registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:   make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
		spans:  make(map[string]*Span),
	}
}

// SetEnabled flips the registry's enabled flag (span timing gate).
func (r *Registry) SetEnabled(on bool) { r.enabled.Store(on) }

// Enabled reports the enabled flag.
func (r *Registry) Enabled() bool { return r.enabled.Load() }

// Counter returns the counter registered under name, creating it on first
// use. The help string of the first registration wins.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.ctrs[name]; ok {
		return c
	}
	c := &Counter{name: name, help: help}
	r.ctrs[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name, help: help}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds (ascending; +Inf is implicit) on first
// use. Empty buckets select DefBuckets.
func (r *Registry) Histogram(name, help string, buckets ...float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.histogramLocked(name, help, buckets)
}

func (r *Registry) histogramLocked(name, help string, buckets []float64) *Histogram {
	if h, ok := r.hists[name]; ok {
		return h
	}
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	h := &Histogram{
		name:   name,
		help:   help,
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	r.hists[name] = h
	return h
}

// Reset zeroes every registered metric (registrations are kept). Intended
// for tests and for isolating consecutive runs in one process.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.ctrs {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.bits.Store(0)
	}
	for _, h := range r.hists {
		for i := range h.counts {
			h.counts[i].Store(0)
		}
		h.sum.bits.Store(0)
		h.count.Store(0)
	}
}

// Snapshot returns a deterministic (name-sorted) copy of every registered
// metric's current value.
func (r *Registry) Snapshot() Snapshot {
	if r.collect != nil {
		r.collect()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var s Snapshot
	for _, c := range r.ctrs {
		s.Counters = append(s.Counters, CounterSnap{Name: c.name, Help: c.help, Value: c.Value()})
	}
	for _, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnap{Name: g.name, Help: g.help, Value: g.Value()})
	}
	for _, h := range r.hists {
		hs := HistSnap{
			Name:    h.name,
			Help:    h.help,
			Bounds:  append([]float64(nil), h.bounds...),
			Buckets: make([]int64, len(h.counts)),
			Sum:     h.sum.Value(),
			Count:   h.count.Load(),
		}
		for i := range h.counts {
			hs.Buckets[i] = h.counts[i].Load()
		}
		s.Histograms = append(s.Histograms, hs)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}
