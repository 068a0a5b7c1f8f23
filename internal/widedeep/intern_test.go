package widedeep

import (
	"strconv"
	"testing"

	"autoview/internal/plan"
)

// TestInternDistinguishesCollidingOperators drives the interner with
// its own hash and with a degenerate one that puts every operator in
// one bucket: operators that differ only in a token's Str bit, in where
// a token boundary falls, or in length each get their own index, equal
// ones share it, and indices follow first appearance — so a collision
// costs probes and never aliases two operators.
func TestInternDistinguishesCollidingOperators(t *testing.T) {
	kw := func(s string) plan.Tok { return plan.Tok{Text: s} }
	str := func(s string) plan.Tok { return plan.Tok{Text: s, Str: true} }
	seqs := [][]plan.Tok{
		{kw("ab"), kw("c")},
		{kw("a"), kw("bc")},  // same bytes, other token boundary
		{kw("ab"), str("c")}, // same texts, other Str bit
		{kw("ab")},           // a prefix
		{kw("ab"), kw("c"), kw("c")},
		{kw("abc")},
		{},
	}
	// Enough further operators to grow the table several times.
	for i := 0; i < 300; i++ {
		seqs = append(seqs, []plan.Tok{kw("scan"), kw("t" + strconv.Itoa(i))})
	}
	hashes := map[string]func([]plan.Tok) uint64{
		"hashOp":     hashOp,
		"one bucket": func([]plan.Tok) uint64 { return 7 },
	}
	for name, hash := range hashes {
		var in opInterner
		for round := 0; round < 2; round++ {
			for want, seq := range seqs {
				// A copy: operators are equal by content, not by backing array.
				cp := append([]plan.Tok{}, seq...)
				if got := in.internHashed(hash(cp), cp); got != want {
					t.Fatalf("%s, round %d: operator %d %v interned as %d", name, round, want, seq, got)
				}
			}
		}
		if len(in.seqs) != len(seqs) {
			t.Errorf("%s: %d distinct operators, want %d", name, len(in.seqs), len(seqs))
		}
		in.reset()
		if got := in.internHashed(hash(seqs[3]), seqs[3]); got != 0 || len(in.seqs) != 1 {
			t.Errorf("%s: after reset, first operator interned as %d of %d", name, got, len(in.seqs))
		}
	}
	// The separator byte is what tells the first three apart in the hash.
	if a, b, c := hashOp(seqs[0]), hashOp(seqs[1]), hashOp(seqs[2]); a == b || a == c || b == c {
		t.Errorf("hashOp ignores the token boundary or the Str bit: %x %x %x", a, b, c)
	}
}
