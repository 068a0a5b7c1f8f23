// Fixtures for the atomicfield analyzer: the function-style sync/atomic
// API is banned outright.
package atomicfield

import (
	"sync/atomic"
	"unsafe"
)

type gauge struct {
	val  int64
	name string
}

// Every function-style operation is a finding, reads and writes alike.
func (g *gauge) bump() { atomic.AddInt64(&g.val, 1) } // want `function-style atomic.AddInt64`

func (g *gauge) readAtomic() int64 {
	return atomic.LoadInt64(&g.val) // want `function-style atomic.LoadInt64`
}

func (g *gauge) set(v int64) {
	atomic.StoreInt64(&g.val, v) // want `function-style atomic.StoreInt64`
}

func (g *gauge) cas(old, v int64) bool {
	return atomic.CompareAndSwapInt64(&g.val, old, v) // want `function-style atomic.CompareAndSwapInt64`
}

// Not only struct fields: a package-level word or a pointer is the same
// hazard.
var hits uint64

var head unsafe.Pointer

func hit() uint64 {
	atomic.AddUint64(&hits, 1)         // want `function-style atomic.AddUint64`
	_ = atomic.LoadPointer(&head)      // want `function-style atomic.LoadPointer`
	return atomic.SwapUint64(&hits, 0) // want `function-style atomic.SwapUint64`
}

// The mixed-mode race the ban makes unreachable: these plain accesses
// can only race an atomic user, and every atomic user of val above is
// already a finding.
func (g *gauge) read() int64 { return g.val }

func (g *gauge) resetRacy() { g.val = 0 }

// Guard: the typed atomics are the conforming form; their methods have
// a receiver and are not the function-style API.
type counter struct {
	n   atomic.Int64
	cur atomic.Pointer[gauge]
	ok  atomic.Bool
}

func (c *counter) inc() int64 { return c.n.Add(1) }

func (c *counter) publish(g *gauge) {
	c.cur.Store(g)
	c.ok.Store(true)
}

func (c *counter) snapshot() (*gauge, int64) { return c.cur.Load(), c.n.Load() }

// Guard: fields never touched atomically stay unconstrained.
func (g *gauge) title() string { return g.name }

// A vetted holdout is waived with the audit tag like any other finding.
func legacy(p *int32) int32 {
	//lint:allow atomicfield(audit) mirrors a C struct layout that cannot hold a typed atomic
	return atomic.LoadInt32(p)
}
