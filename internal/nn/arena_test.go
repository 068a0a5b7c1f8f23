package nn

import "testing"

func TestArenaVecZeroedAndDisjoint(t *testing.T) {
	a := NewArena()
	v1 := a.Vec(8)
	for i := range v1 {
		v1[i] = float64(i + 1)
	}
	v2 := a.Vec(8)
	for i, x := range v2 {
		if x != 0 { // zeroing contract is exact
			t.Fatalf("Vec not zeroed at %d: %v", i, x)
		}
	}
	v2[0] = 99
	if v1[0] != 1 { // disjointness check is exact
		t.Fatalf("arena vectors overlap: v1 = %v", v1)
	}
	// Capacity is clamped, so append must not grow into the next carve.
	v1 = append(v1, 7)
	if v2[0] != 99 { // disjointness check is exact
		t.Fatalf("append on an arena vec clobbered its neighbor")
	}
}

func TestArenaResetReusesSameBacking(t *testing.T) {
	a := NewArena()
	v1 := a.Vec(16)
	v1[3] = 42
	a.Reset()
	v2 := a.Vec(16)
	if &v1[0] != &v2[0] {
		t.Fatalf("Reset did not rewind to the same backing chunk")
	}
	if v2[3] != 0 { // zeroing contract is exact
		t.Fatalf("Vec after Reset not zeroed: %v", v2[3])
	}
}

// TestArenaConverges is the zero-allocation guarantee at the allocator
// level: after enough warm-up rounds of a fixed request sequence, a
// Reset + replay of that sequence must not allocate at all.
func TestArenaConverges(t *testing.T) {
	a := NewArena()
	run := func() {
		a.Reset()
		a.Vec(3)
		a.Vec(minFloatChunk + 17) // oversized: needs a dedicated chunk
		a.Vec(500)
		a.Vec32(9 * 33)
		a.Vec32(minFloatChunk + 5) // oversized f32 request
		a.Vec(1)
	}
	for i := 0; i < 4; i++ {
		run()
	}
	if n := testing.AllocsPerRun(50, run); n != 0 {
		t.Fatalf("warm arena still allocates: %v allocs/op", n)
	}
}

// TestArenaGrowth exercises the grow-in-place path: a later round asking
// for a bigger vector at the same position must still converge.
func TestArenaGrowth(t *testing.T) {
	a := NewArena()
	for round := 0; round < 3; round++ {
		a.Reset()
		v := a.Vec(minFloatChunk * (round + 1))
		for i := range v {
			if v[i] != 0 { // zeroing contract is exact
				t.Fatalf("round %d: grown chunk not zeroed", round)
			}
		}
	}
	a.Reset()
	big := a.Vec(minFloatChunk * 3)
	small := a.Vec(4)
	big[0], small[0] = 1, 2
	if big[0] != 1 { // disjointness check is exact
		t.Fatalf("grown chunk overlaps next carve")
	}
	run := func() {
		a.Reset()
		a.Vec(minFloatChunk * 3)
		a.Vec(4)
	}
	if n := testing.AllocsPerRun(50, run); n != 0 {
		t.Fatalf("arena did not converge after growth: %v allocs/op", n)
	}
}

func TestArenaBytes(t *testing.T) {
	a := NewArena()
	if a.Bytes() != 0 {
		t.Fatalf("fresh arena Bytes = %d, want 0", a.Bytes())
	}
	a.Vec(10) // rounds up to one minimum chunk
	want := 8 * minFloatChunk
	if a.Bytes() != want {
		t.Fatalf("Bytes = %d, want %d", a.Bytes(), want)
	}
	a.Vec32(10)
	want += 4 * minFloatChunk
	if a.Bytes() != want {
		t.Fatalf("Bytes after Vec32 = %d, want %d", a.Bytes(), want)
	}
	a.Reset()
	if a.Bytes() != want {
		t.Fatalf("Reset changed Bytes: %d, want %d", a.Bytes(), want)
	}
}

func TestArenaZeroLength(t *testing.T) {
	a := NewArena()
	if v := a.Vec(0); v != nil {
		t.Fatalf("Vec(0) = %v, want nil", v)
	}
	if v := a.Vec32(0); v != nil {
		t.Fatalf("Vec32(0) = %v, want nil", v)
	}
	if a.Bytes() != 0 {
		t.Fatalf("zero-length requests reserved memory: %d bytes", a.Bytes())
	}
}
