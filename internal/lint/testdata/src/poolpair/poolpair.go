// Fixtures for the poolpair analyzer.
package poolpair

import (
	"errors"
	"sync"

	"poolutil"
)

type buffer struct{ b []byte }

var pool = sync.Pool{New: func() any { return new(buffer) }}

var errBoom = errors.New("boom")

const maxRetain = 1 << 12

// Leak on the early-error path.
func earlyReturnLeak(fail bool) error {
	s := pool.Get().(*buffer)
	if fail {
		return errBoom // want `not returned to the pool on this path`
	}
	pool.Put(s)
	return nil
}

// Falling off the end without a Put reports at the Get.
func fallOffLeak() {
	s := pool.Get().(*buffer) // want `never reaches a Put`
	s.b = s.b[:0]
}

// The result discarded outright.
func discarded() {
	pool.Get() // want `is discarded`
}

func blanked() {
	_ = pool.Get() // want `assigned to _`
}

// A switch without a default leaks on the implicit fall-through.
func switchLeak(mode int) {
	s := pool.Get().(*buffer) // want `never reaches a Put`
	switch mode {
	case 0:
		pool.Put(s)
	}
}

// A select arm that returns without the Put leaks on that arm.
func selectLeak(done chan struct{}) {
	s := pool.Get().(*buffer)
	select {
	case <-done:
		return // want `not returned to the pool on this path`
	default:
		pool.Put(s)
	}
}

// Cross-package: poolutil.GetBuf hands out pooled memory; PutBuf
// returns it. The pairing rides facts.
func crossLeak(fail bool) error {
	b := poolutil.GetBuf()
	if fail {
		return errBoom // want `not returned to the pool on this path`
	}
	poolutil.PutBuf(b)
	return nil
}

// Cross-package through wrapper methods named like the pool's own.
func methodWrapperLeak(p *poolutil.BufPool, fail bool) error {
	b := p.Get()
	if fail {
		return errBoom // want `not returned to the pool on this path`
	}
	p.Put(b)
	return nil
}

// Guard: defer covers every exit.
func deferPut(fail bool) error {
	s := pool.Get().(*buffer)
	defer pool.Put(s)
	if fail {
		return errBoom
	}
	return nil
}

// Guard: every path Puts.
func bothPaths(fail bool) {
	s := pool.Get().(*buffer)
	if fail {
		pool.Put(s)
		return
	}
	pool.Put(s)
}

// Guard: the retention-cap drop idiom is a deliberate shed, so only
// the fall-through path owes a Put.
func capDrop() {
	s := pool.Get().(*buffer)
	if cap(s.b) > maxRetain {
		return
	}
	pool.Put(s)
}

// Guard: comma-ok Get in an if-init carries the value only into the
// then branch (the zero value on the !ok path owes nothing).
func commaOk() *buffer {
	if s, ok := pool.Get().(*buffer); ok {
		return s
	}
	return &buffer{}
}

// Guard: ownership transfer — the new owner inherits the obligation.
type server struct{ cur *buffer }

func (sv *server) adopt() {
	s := pool.Get().(*buffer)
	sv.cur = s
}

// Guard: a panic path never reaches the normal exits.
func mustHave(fail bool) {
	s := pool.Get().(*buffer)
	if fail {
		panic("boom")
	}
	pool.Put(s)
}

// Guard: a switch with a default Puts on every path.
func switchPaths(mode int) {
	s := pool.Get().(*buffer)
	switch mode {
	case 0:
		pool.Put(s)
	default:
		pool.Put(s)
	}
}

// Guard: cross-package pairing satisfied by defer.
func crossPaired() {
	b := poolutil.GetBuf()
	defer poolutil.PutBuf(b)
}

// Guard: a deliberate drop outside the cap idiom, waived and tagged
// for audit (LINTING.md "Audit notes").
func auditedDrop(oversized bool) {
	s := pool.Get().(*buffer)
	if oversized {
		//lint:allow poolpair(audit) deliberate shed under memory pressure
		return
	}
	pool.Put(s)
}
