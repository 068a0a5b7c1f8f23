// Package enc exports an arena-helper fact: Embed returns arena-backed
// memory. The app package consumes the fact across the package
// boundary.
package enc

import "autoviewvet/internal/nn"

// Embed hands back memory carved from a; the caller owns the lifetime.
func Embed(a *nn.Arena, n int) nn.Vec { return a.Vec(n) }
