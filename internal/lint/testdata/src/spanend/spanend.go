// Fixtures for the spanend analyzer.
package spanend

import (
	"obs"
	"time"
)

func discarded() {
	obs.StartSpan("parse") // want `never ended`
}

func blank() {
	_ = obs.StartSpan("parse") // want `never ended`
}

func deferredStart() {
	defer obs.StartSpan("parse") // want `never ended`
}

func registryDiscard(r *obs.Registry) {
	r.StartSpan("exec") // want `never ended`
}

// Guard: the canonical deferred stop.
func canonical() {
	defer obs.StartSpan("parse")()
}

// Guard: stop held in a variable and called on the way out.
func stopVar() {
	stop := obs.StartSpan("parse")
	work()
	stop()
}

// Guard: stop deferred from a variable.
func stopDefer(r *obs.Registry) {
	stop := r.StartSpan("exec")
	defer stop()
	work()
}

// Guard: the closure escapes to the caller, which owns ending it.
func escapes() func() {
	return obs.StartSpan("parse")
}

// Guard: obs.Time brackets the span itself.
func timed() {
	obs.Time("parse", work)
}

var sp = new(obs.Registry).Span("serve.fingerprint")

func beginDiscarded() {
	sp.Begin() // want `never ended`
}

func beginBlank() {
	_ = sp.Begin() // want `never ended`
}

func beginDeferred() {
	defer sp.Begin() // want `never ended`
}

// Guard: the canonical resolved span.
func beginCanonical() {
	defer sp.End(sp.Begin())
	work()
}

// Guard: the start time held and passed to End on the way out.
func beginHeld() {
	start := sp.Begin()
	work()
	sp.End(start)
}

// Guard: the start time escapes to the caller, which owns ending it.
func beginEscapes() time.Time {
	return sp.Begin()
}

func work() {}
