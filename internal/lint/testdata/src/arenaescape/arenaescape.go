// Fixtures for the arenaescape analyzer.
package arenaescape

import (
	"arenahelp"
	"nn"
)

type model struct {
	buf   nn.Vec
	buf32 nn.Vec32
}

var global nn.Vec

var registry = map[string]nn.Vec{}

var resultCh = make(chan nn.Vec, 1)

// Field stores outlive Reset even when the arena flows in.
func fieldStore(m *model, a *nn.Arena) {
	m.buf = a.Vec(8) // want `struct field buf`
}

func globalStore(a *nn.Arena) {
	global = a.Vec(8) // want `package variable global`
}

// Taint rides derived slices.
func derivedStore(a *nn.Arena) {
	v := a.Vec(8)
	global = v[:4] // want `package variable global`
}

func f32Store(m *model, a *nn.Arena) {
	v := a.Vec32(4)
	m.buf32 = v // want `struct field buf32`
}

func mapStore(a *nn.Arena) {
	registry["x"] = a.Vec(8) // want `package-level container registry`
}

func channelSend(a *nn.Arena) {
	resultCh <- a.Vec(8) // want `sent on a channel`
}

// Rows produced by ranging over arena-backed rows stay arena memory.
func rangeRows(m *model, a *nn.Arena) {
	rows := []nn.Vec{a.Vec(3), a.Vec(3)}
	for _, row := range rows {
		m.buf = row // want `struct field buf`
	}
}

// Returning carved memory without the arena as a parameter: the owner
// resets the arena after we return.
func leakReturn() nn.Vec {
	a := nn.NewArena()
	return a.Vec(8) // want `without an arena parameter`
}

// Cross-package fact: arenahelp.Carve's result is arena-backed.
func leakViaHelper() nn.Vec {
	a := nn.NewArena()
	return arenahelp.Carve(a, 8) // want `without an arena parameter`
}

// Chained cross-package fact (CarveChain returns Carve's result).
func leakViaChain(m *model) {
	a := nn.NewArena()
	m.buf = arenahelp.CarveChain(a, 8) // want `struct field buf`
}

// Tuple results taint index-wise: only index 0 is arena-backed.
func tupleTaint(a *nn.Arena) {
	v, n := arenahelp.CarveTwo(a, 8)
	global = v // want `package variable global`
	_ = n
}

// Function literals are their own scopes with the same rules.
func inLiteral() nn.Vec {
	f := func() nn.Vec {
		a := nn.NewArena()
		return a.Vec(4) // want `without an arena parameter`
	}
	return f()
}

// Guard: a helper that takes the arena exports a fact instead of a
// finding — the caller owns the lifetime.
func carveLocal(a *nn.Arena, n int) nn.Vec {
	return a.Vec(n)
}

// A literal exports no fact, so its callers cannot be checked: returning
// a carve from one is a finding even when the arena is its parameter.
// carveLocal above is the conforming form.
func litWithArena() {
	carve := func(a *nn.Arena) nn.Vec { return a.Vec(4) } // want `without an arena parameter`
	a := nn.NewArena()
	_ = carve(a)
}

// Guard: scalar element loads copy the value out of the arena.
var lastScalar float64

func scalarOut(a *nn.Arena) {
	lastScalar = a.Vec(4)[0]
}

// Guard: copying into heap memory detaches from the arena.
func copyOut(a *nn.Arena) {
	dst := make(nn.Vec, 8)
	copy(dst, a.Vec(8))
	global = dst
}

// append with an arena-backed argument is arena-backed, spread or not;
// copyOut above is the conforming way to detach.
func appendOut(a *nn.Arena) {
	var dst nn.Vec
	dst = append(dst, a.Vec(8)...)
	global = dst // want `package variable global`
}

// An arena-backed row appended as an element keeps its header.
func appendRow(a *nn.Arena) {
	var rows []nn.Vec
	rows = append(rows, a.Vec(8))
	global = rows[0] // want `package variable global`
}
