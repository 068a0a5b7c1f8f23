package widedeep

import (
	"slices"

	"autoview/internal/plan"
)

// opInterner numbers the distinct operators (token sequences) it is
// shown in first-appearance order — what lets a training mini-batch and
// a serving micro-batch encode each operator once however many plans
// use it. An open-addressing table over a hash of the tokens finds the
// candidates; a hash match is only ever a reason to compare the tokens
// themselves, so a collision costs a probe and can never alias two
// operators. The zero value is ready to use; reset empties it and keeps
// its storage.
type opInterner struct {
	seqs   [][]plan.Tok // the distinct operators, first-appearance order
	hashes []uint64     // hashes[id] is the hash of seqs[id]
	table  []int32      // id+1 per occupied slot, 0 = empty; length a power of two, at most half full
}

// hashOp is FNV-1a over the operator's token texts, each followed by a
// byte that separates tokens and carries the Str bit.
func hashOp(seq []plan.Tok) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, t := range seq {
		for i := 0; i < len(t.Text); i++ {
			h = (h ^ uint64(t.Text[i])) * prime
		}
		end := uint64(0xfe)
		if t.Str {
			end = 0xff
		}
		h = (h ^ end) * prime
	}
	return h
}

// intern returns seq's index, adding it if no equal operator was seen
// since the last reset. seq is kept by reference, not copied.
func (in *opInterner) intern(seq []plan.Tok) int {
	return in.internHashed(hashOp(seq), seq)
}

// internHashed is intern with the hash supplied, so a test can force
// every operator into one bucket.
func (in *opInterner) internHashed(h uint64, seq []plan.Tok) int {
	if 2*(len(in.seqs)+1) > len(in.table) {
		in.grow()
	}
	mask := uint64(len(in.table) - 1)
	for slot := h & mask; ; slot = (slot + 1) & mask {
		e := in.table[slot]
		if e == 0 {
			in.table[slot] = int32(len(in.seqs) + 1)
			in.seqs = append(in.seqs, seq)
			in.hashes = append(in.hashes, h)
			return len(in.seqs) - 1
		}
		if id := int(e - 1); in.hashes[id] == h && slices.Equal(in.seqs[id], seq) {
			return id
		}
	}
}

// grow doubles the table and re-places every operator by its kept hash.
func (in *opInterner) grow() {
	in.table = make([]int32, max(64, 2*len(in.table)))
	mask := uint64(len(in.table) - 1)
	for id, h := range in.hashes {
		slot := h & mask
		for in.table[slot] != 0 {
			slot = (slot + 1) & mask
		}
		in.table[slot] = int32(id + 1)
	}
}

// reset forgets every operator (and drops the references to their
// tokens) but keeps the table at its grown size.
func (in *opInterner) reset() {
	clear(in.seqs)
	in.seqs = in.seqs[:0]
	in.hashes = in.hashes[:0]
	clear(in.table)
}
