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

// Every path Puts, but the rule follows no path: the Put inside the
// branch is not counted, so the return after it is reported.
func bothPaths(fail bool) {
	s := pool.Get().(*buffer)
	if fail {
		pool.Put(s)
		return // want `not returned to the pool on this path`
	}
	pool.Put(s)
}

// Guard: the defer form of bothPaths.
func bothPathsDefer(fail bool) {
	s := pool.Get().(*buffer)
	defer pool.Put(s)
	if fail {
		return
	}
}

// A retention-cap drop is a deliberate shed, and deliberate drops are
// waived, not recognized.
func capDrop() {
	s := pool.Get().(*buffer)
	if cap(s.b) > maxRetain {
		return // want `not returned to the pool on this path`
	}
	pool.Put(s)
}

// Guard: the cap decision moves into the putter and the call site
// defers it.
func putCapped(s *buffer) {
	if cap(s.b) > maxRetain {
		return
	}
	pool.Put(s)
}

func capDropDefer() {
	s := pool.Get().(*buffer)
	defer putCapped(s)
	s.b = append(s.b[:0], 'x')
}

// Guard: comma-ok Get in an if-init carries the value only into the
// then branch (the zero value on the !ok path owes nothing).
func commaOk() *buffer {
	if s, ok := pool.Get().(*buffer); ok {
		return s
	}
	return &buffer{}
}

// Ownership transfer is not a Put: the block ends without one.
type server struct{ cur *buffer }

func (sv *server) adopt() {
	s := pool.Get().(*buffer) // want `never reaches a Put`
	sv.cur = s
}

// Guard: a constructor that keeps a pooled value hands it out as a
// getter does, with `return v`; its caller owes the Put.
func adoptReturned() *buffer {
	s := pool.Get().(*buffer)
	s.b = s.b[:0]
	return s
}

// Guard: a panic path never reaches the normal exits.
func mustHave(fail bool) {
	s := pool.Get().(*buffer)
	if fail {
		panic("boom")
	}
	pool.Put(s)
}

// A switch whose every arm Puts is still a Put nested in a branch.
func switchPaths(mode int) {
	s := pool.Get().(*buffer) // want `never reaches a Put`
	switch mode {
	case 0:
		pool.Put(s)
	default:
		pool.Put(s)
	}
}

// Guard: the defer form of switchPaths.
func switchPathsDefer(mode int) {
	s := pool.Get().(*buffer)
	defer pool.Put(s)
	switch mode {
	case 0:
		s.b = s.b[:0]
	}
}

// A continue out of the loop body that holds the Get skips the Put
// like a return does.
func loopLeak(modes []int) {
	for _, m := range modes {
		s := pool.Get().(*buffer)
		if m == 0 {
			continue // want `not returned to the pool on this path`
		}
		pool.Put(s)
	}
}

// Guard: a return inside a function literal leaves the literal.
func closureReturn(each func(func() bool)) {
	s := pool.Get().(*buffer)
	each(func() bool { return len(s.b) > 0 })
	pool.Put(s)
}

// Guard: cross-package pairing satisfied by defer.
func crossPaired() {
	b := poolutil.GetBuf()
	defer poolutil.PutBuf(b)
}

// Guard: a deliberate drop, waived and tagged for audit (LINTING.md
// "Audit notes").
func auditedDrop(oversized bool) {
	s := pool.Get().(*buffer)
	if oversized {
		//lint:allow poolpair(audit) deliberate shed under memory pressure
		return
	}
	pool.Put(s)
}
