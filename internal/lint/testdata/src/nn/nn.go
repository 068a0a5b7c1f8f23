// Package nn is a minimal shim of autoview/internal/nn for the
// arenaescape fixtures: the same carving surface, heap-backed behavior.
package nn

// Vec mirrors nn.Vec.
type Vec []float64

// Vec32 mirrors nn.Vec32.
type Vec32 []float32

// Arena mirrors the bump arena's carving surface.
type Arena struct{ used int }

// NewArena mirrors nn.NewArena.
func NewArena() *Arena { return &Arena{} }

// Vec mirrors (*Arena).Vec.
func (a *Arena) Vec(n int) Vec { a.used += n; return make(Vec, n) }

// Vec32 mirrors (*Arena).Vec32.
func (a *Arena) Vec32(n int) Vec32 { a.used += n; return make(Vec32, n) }

// Reset mirrors (*Arena).Reset.
func (a *Arena) Reset() { a.used = 0 }
