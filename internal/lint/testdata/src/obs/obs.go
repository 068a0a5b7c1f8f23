// Package obs is a minimal shim of autoview/internal/obs for the
// spanend fixtures: same names, no behavior.
package obs

import "time"

// Registry mirrors the real registry's span surface.
type Registry struct{}

// StartSpan mirrors obs.StartSpan.
func StartSpan(name string) func() { return func() { _ = name } }

// StartSpan mirrors (*obs.Registry).StartSpan.
func (r *Registry) StartSpan(name string) func() { return func() { _ = name } }

// Time mirrors obs.Time.
func Time(name string, fn func()) { fn() }

// Span mirrors the real resolved span.
type Span struct{}

// Span mirrors (*obs.Registry).Span.
func (r *Registry) Span(name string) *Span { _ = name; return &Span{} }

// Begin mirrors (*obs.Span).Begin.
func (s *Span) Begin() time.Time { return time.Time{} }

// End mirrors (*obs.Span).End.
func (s *Span) End(start time.Time) { _ = start }
