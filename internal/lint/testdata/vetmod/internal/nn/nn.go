// Package nn shims the arena surface for the cross-package fixture
// test (TestLoadCrossPackageFacts): the module path ends in internal/nn,
// so the analyzers treat it as the real thing.
package nn

// Vec mirrors nn.Vec.
type Vec []float64

// Arena mirrors the bump arena's carving surface.
type Arena struct{ used int }

// NewArena mirrors nn.NewArena.
func NewArena() *Arena { return &Arena{} }

// Vec mirrors (*Arena).Vec.
func (a *Arena) Vec(n int) Vec { a.used += n; return make(Vec, n) }

// Reset mirrors (*Arena).Reset.
func (a *Arena) Reset() { a.used = 0 }
