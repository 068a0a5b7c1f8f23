// Package poolutil is a fixture dependency for poolpair: a pool
// wrapped behind getter/putter helpers. GetBuf exports a "hands out
// pooled memory" fact and PutBuf a "returns parameter 0 to the pool"
// fact, so the poolpair fixture package is checked across the package
// boundary exactly like direct Get/Put calls.
package poolutil

import "sync"

var bufPool = sync.Pool{New: func() any { return new([]byte) }}

const maxRetain = 1 << 16

// GetBuf hands out a pooled buffer; callers must PutBuf it.
func GetBuf() *[]byte { return bufPool.Get().(*[]byte) }

// PutBuf returns b to the pool, shedding oversized buffers.
func PutBuf(b *[]byte) {
	if cap(*b) > maxRetain {
		return
	}
	bufPool.Put(b)
}

// BufPool wraps a pool behind methods that share sync.Pool's own names
// (the shape of nn.ArenaPool): they are wrappers all the same, paired
// through facts.
type BufPool struct{ pool sync.Pool }

// Get hands out a pooled buffer; callers must Put it.
func (p *BufPool) Get() *[]byte {
	if b, ok := p.pool.Get().(*[]byte); ok {
		return b
	}
	return new([]byte)
}

// Put returns b to the pool.
func (p *BufPool) Put(b *[]byte) { p.pool.Put(b) }
