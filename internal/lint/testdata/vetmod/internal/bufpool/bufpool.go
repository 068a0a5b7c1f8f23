// Package bufpool exports pool getter/putter facts consumed by the app
// package across the package boundary.
package bufpool

import "sync"

var pool = sync.Pool{New: func() any { return new([]byte) }}

// GetBuf hands out a pooled buffer; callers must PutBuf it.
func GetBuf() *[]byte { return pool.Get().(*[]byte) }

// PutBuf returns b to the pool.
func PutBuf(b *[]byte) { pool.Put(b) }
