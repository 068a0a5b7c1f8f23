package nn

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
// (widedeep keeps a pool of them, one handed to each ParallelFor
// worker). Vectors returned by Vec/Vec32 are valid until the next
// Reset; callers must not retain them across predictions.
type Arena struct {
	floats   [][]float64 // float64 chunks
	fi, foff int         // current float chunk and offset
	f32s     [][]float32 // float32 chunks (f32 kernel mirrors)
	gi, goff int         // current float32 chunk and offset
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
	a.fi, a.foff = 0, 0
	a.gi, a.goff = 0, 0
}

// Vec returns a zeroed n-vector carved from the arena (same contract as
// a fresh make: all elements 0).
func (a *Arena) Vec(n int) Vec {
	if n == 0 {
		return nil
	}
	for {
		if a.fi < len(a.floats) {
			chunk := a.floats[a.fi]
			if a.foff+n <= len(chunk) {
				v := chunk[a.foff : a.foff+n : a.foff+n]
				a.foff += n
				clear(v)
				return v
			}
			if a.foff == 0 && n > len(chunk) {
				// This position's chunk can never fit the request: grow
				// it in place so the next Reset walk succeeds directly.
				a.floats[a.fi] = make([]float64, n)
				continue
			}
			// Chunk full (or too small but partially handed out): advance.
			a.fi++
			a.foff = 0
			continue
		}
		size := n
		if size < minFloatChunk {
			size = minFloatChunk
		}
		a.floats = append(a.floats, make([]float64, size))
		a.foff = 0
	}
}

// Vec32 returns a zeroed n-vector of float32 carved from the arena —
// the scratch source of the f32 inference mirrors. Same contract as
// Vec: zeroed, disjoint from all other live slices, valid until Reset.
func (a *Arena) Vec32(n int) Vec32 {
	if n == 0 {
		return nil
	}
	for {
		if a.gi < len(a.f32s) {
			chunk := a.f32s[a.gi]
			if a.goff+n <= len(chunk) {
				v := chunk[a.goff : a.goff+n : a.goff+n]
				a.goff += n
				clear(v)
				return v
			}
			if a.goff == 0 && n > len(chunk) {
				a.f32s[a.gi] = make([]float32, n)
				continue
			}
			a.gi++
			a.goff = 0
			continue
		}
		size := n
		if size < minFloatChunk {
			size = minFloatChunk
		}
		a.f32s = append(a.f32s, make([]float32, size))
		a.goff = 0
	}
}

// Bytes reports the arena's current footprint (the high-water scratch
// size of the shapes it has served), for observability.
func (a *Arena) Bytes() int {
	total := 0
	for _, c := range a.floats {
		total += 8 * len(c)
	}
	for _, c := range a.f32s {
		total += 4 * len(c)
	}
	return total
}
