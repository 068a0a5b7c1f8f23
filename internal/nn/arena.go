package nn

import (
	"sync"
	"sync/atomic"
)

// Arena is a reusable bump allocator for inference scratch memory: the
// forward-only Infer paths carve their activations out of it instead of
// the heap, so a steady-state prediction performs zero allocations.
//
// Memory is held in chunks that survive Reset. A fresh arena grows while
// the first few calls discover the model's working-set shape; after that
// every Reset rewinds to the start of the existing chunks and the same
// call sequence walks them without touching the allocator. Chunks only
// ever grow (a position's chunk is replaced by a larger one when a
// request outsizes it), so the footprint converges to the high-water
// mark of the shapes seen.
//
// Contracts (the serving fast path depends on all three):
//
//   - Aliasing: every Vec/Vec32 call returns a slice disjoint from
//     every other slice handed out since the last Reset, so kernels may
//     assume their operands never overlap unless the caller aliased
//     them deliberately (in-place activations do).
//   - Zero-alloc: once the arena has served a call sequence, replaying
//     any sequence with the same-or-smaller shapes after Reset touches
//     the Go allocator zero times (the allocation-regression tests pin
//     this for the widedeep forward).
//   - Determinism: memory handed out is always zeroed, so arena-backed
//     computations cannot observe values from earlier predictions.
//
// An arena is NOT safe for concurrent use: give each worker its own
// (widedeep and rl each keep an ArenaPool, one arena handed to each
// ParallelFor worker). Vectors returned by Vec/Vec32 are valid until
// the next Reset; callers must not retain them across predictions.
type Arena struct {
	f64 bump[float64]
	f32 bump[float32] // f32 kernel mirrors
}

// bump is one element type's chunk list and carve position.
type bump[T float64 | float32] struct {
	chunks [][]T
	i, off int // current chunk and offset into it
}

// minFloatChunk sizes freshly grown chunks; requests larger than the
// minimum get a dedicated chunk of their own size.
const minFloatChunk = 4096

// NewArena returns an empty arena; it sizes itself to the model on
// first use.
func NewArena() *Arena { return &Arena{} }

// Reset rewinds the arena, invalidating every previously returned
// vector while keeping the chunks for reuse.
func (a *Arena) Reset() {
	a.f64.i, a.f64.off = 0, 0
	a.f32.i, a.f32.off = 0, 0
}

// Vec returns a zeroed n-vector carved from the arena (same contract as
// a fresh make: all elements 0).
func (a *Arena) Vec(n int) Vec { return a.f64.carve(n) }

// Vec32 returns a zeroed n-vector of float32 carved from the arena —
// the scratch source of the f32 inference mirrors. Same contract as
// Vec: zeroed, disjoint from all other live slices, valid until Reset.
func (a *Arena) Vec32(n int) Vec32 { return a.f32.carve(n) }

// carve is the bump allocation behind Vec and Vec32.
func (b *bump[T]) carve(n int) []T {
	if n == 0 {
		return nil
	}
	for {
		if b.i < len(b.chunks) {
			chunk := b.chunks[b.i]
			if b.off+n <= len(chunk) {
				v := chunk[b.off : b.off+n : b.off+n]
				b.off += n
				clear(v)
				return v
			}
			if b.off == 0 && n > len(chunk) {
				// This position's chunk can never fit the request: grow
				// it in place so the next Reset walk succeeds directly.
				b.chunks[b.i] = make([]T, n)
				continue
			}
			// Chunk full (or too small but partially handed out): advance.
			b.i++
			b.off = 0
			continue
		}
		b.chunks = append(b.chunks, make([]T, max(n, minFloatChunk)))
		b.off = 0
	}
}

// Bytes reports the arena's current footprint (the high-water scratch
// size of the shapes it has served), for observability.
func (a *Arena) Bytes() int {
	total := 0
	for _, c := range a.f64.chunks {
		total += 8 * len(c)
	}
	for _, c := range a.f32.chunks {
		total += 4 * len(c)
	}
	return total
}

// ArenaPool hands out reusable arenas, one per concurrent predictor;
// warm arenas carry their model's scratch high-water mark, so
// steady-state use allocates nothing. The zero value is ready to use
// and safe for concurrent use. One arena is pinned outside the
// sync.Pool: a garbage collection empties a sync.Pool wholesale, and
// the pinned slot keeps the single-predictor path allocation-free
// through it.
type ArenaPool struct {
	spare atomic.Pointer[Arena]
	pool  sync.Pool
}

// Get returns a pooled arena (the pinned one first), or a fresh one.
// The caller Resets it before use and hands it back with Put.
func (p *ArenaPool) Get() *Arena {
	if a := p.spare.Swap(nil); a != nil {
		return a
	}
	if a, ok := p.pool.Get().(*Arena); ok {
		return a
	}
	return NewArena()
}

// Put returns an arena to the pinned slot, or to the overflow pool.
func (p *ArenaPool) Put(a *Arena) {
	if p.spare.CompareAndSwap(nil, a) {
		return
	}
	p.pool.Put(a)
}
