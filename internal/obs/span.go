package obs

import (
	"sync/atomic"
	"time"
)

// A span is a named, timed region of the pipeline. Completing a span
// records its duration (in seconds) into the histogram "<name>.seconds"
// and emits a debug event "<name>" with a dur_ms field. When the registry
// is disabled both helpers reduce to a single atomic load, so spans can
// stay in hot paths permanently.
//
// A hot call site resolves its span once, into a package variable, as it
// does a Counter:
//
//	var parseSpan = obs.Default.Span("sqlparse.parse")
//	...
//	defer parseSpan.End(parseSpan.Begin())
//
// Begin and End take no lock, build no string and allocate nothing,
// enabled or not. StartSpan and Time look the span up by name on every
// call and allocate the closure they return; they suit cold paths.

// Span is one named span, resolved once. Its histogram is registered on
// the first run that records, so a span that never runs while the
// registry is enabled never appears in a snapshot.
type Span struct {
	r    *Registry
	name string
	h    atomic.Pointer[Histogram]
}

// Span returns the span registered under name, creating it on first use.
func (r *Registry) Span(name string) *Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	if sp, ok := r.spans[name]; ok {
		return sp
	}
	sp := &Span{r: r, name: name}
	r.spans[name] = sp
	return sp
}

// Begin starts one run of the span and returns its start time, which the
// matching End takes. A disabled registry returns the zero time and reads
// no clock.
func (s *Span) Begin() time.Time {
	if !s.r.enabled.Load() {
		return time.Time{}
	}
	return time.Now()
}

// End completes the run that began at start: it records the elapsed time
// into the span's histogram and, when debug events are on, emits one. A
// run begun while the registry was disabled records nothing.
func (s *Span) End(start time.Time) {
	if start.IsZero() {
		return
	}
	d := time.Since(start)
	s.hist().Observe(d.Seconds())
	if debugEnabled() {
		Debug(s.name, "dur_ms", float64(d.Microseconds())/1e3)
	}
}

// hist is the span's histogram, registered on first use.
func (s *Span) hist() *Histogram {
	if h := s.h.Load(); h != nil {
		return h
	}
	h := s.r.Histogram(s.name+".seconds", "duration of the "+s.name+" span")
	s.h.Store(h)
	return h
}

var noop = func() {}

// StartSpan begins the named span on the Default registry and returns the
// function that completes it (use with defer).
func StartSpan(name string) func() { return Default.StartSpan(name) }

// Time runs fn under the named span on the Default registry.
func Time(name string, fn func()) { Default.Time(name, fn) }

// StartSpan begins a named span; the returned closure records the elapsed
// time when called. Disabled registries return a no-op immediately.
func (r *Registry) StartSpan(name string) func() {
	if !r.enabled.Load() {
		return noop
	}
	sp := r.Span(name)
	start := time.Now()
	return func() { sp.End(start) }
}

// Time runs fn under the named span.
func (r *Registry) Time(name string, fn func()) {
	if !r.enabled.Load() {
		fn()
		return
	}
	stop := r.StartSpan(name)
	fn()
	stop()
}

// ObserveSpan records an externally measured duration into the named
// span's histogram (for callers that cannot wrap the region in a closure,
// e.g. accumulated sub-phase time inside a loop). It is a no-op when the
// registry is disabled.
func (r *Registry) ObserveSpan(name string, d time.Duration) {
	if !r.enabled.Load() {
		return
	}
	r.Span(name).hist().Observe(d.Seconds())
}
