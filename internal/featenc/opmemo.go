package featenc

import (
	"slices"
	"sync/atomic"

	"autoview/internal/nn"
	"autoview/internal/plan"
)

// FNV-1a's 64-bit parameters: HashOp and the operator memo's prefix
// keys are one running value.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashTok folds one token into a running HashOp value: its text, then
// a byte that separates tokens and carries the Str bit.
func hashTok(h uint64, t plan.Tok) uint64 {
	for i := 0; i < len(t.Text); i++ {
		h = (h ^ uint64(t.Text[i])) * fnvPrime
	}
	end := uint64(0xfe)
	if t.Str {
		end = 0xff
	}
	return (h ^ end) * fnvPrime
}

// HashOp is FNV-1a over an operator's tokens (hashTok each). The value
// after the first i tokens is the hash of the prefix seq[:i], which is
// what keys the operator memo; widedeep's per-batch operator interner
// keys on the whole value. A hash match is only ever a reason to
// compare the tokens themselves.
func HashOp(seq []plan.Tok) uint64 {
	h := uint64(fnvOffset)
	for _, t := range seq {
		h = hashTok(h, t)
	}
	return h
}

// opMemoBuckets sizes every mirror's operator memo: two entries per
// bucket, 4,096 in all (SERVING.md gives the footprint at capacity).
const opMemoBuckets = 1 << 11

// OpReuse is what InferOp found in its mirror's memo for an operator.
type OpReuse uint8

const (
	OpCold     OpReuse = iota // nothing: LSTM1 ran from the zero state
	OpResumed                 // the state just before one of its constants
	OpMemoized                // the state after its whole sequence
)

// opState is one memo entry: LSTM1's state after the token prefix toks.
// Nothing in it changes once it is published but the CLOCK reference
// bit; hc and toks are heap copies (the token texts are shared, never
// written).
type opState struct {
	hash uint64     // HashOp of toks
	toks []plan.Tok // the prefix; a hit compares it whole
	hc   nn.Vec32   // the hidden state, then the cell state
	ref  atomic.Bool
}

// opMemo is an Encoder32's bounded memo of LSTM1 states, keyed by exact
// token prefix: the state after an operator's whole sequence and the
// state just before each of its constant tokens. LSTM1 starts from the
// zero state and each step reads only (h, c) and its input, so a state
// resumed from here continues to the bits a run from the start would
// reach. The memo belongs to one mirror and is dropped with it, so it
// never outlives the weights that filled it.
//
// Entries are found without a lock: a put replaces a way's entry whole,
// and a reader that loads an entry compares its hash, length and
// tokens, so a race or a collision costs a miss, never a wrong state. A
// state enters on its second sighting (admits, as the serving text
// cache admits texts), so prefixes and operators seen once — a novel
// literal's — allocate nothing and evict nothing.
type opMemo struct {
	buckets []opBucket
	mask    uint64          // bucket index mask
	admits  []atomic.Uint64 // hash tags of recent misses, two slots each; 0 = none
	// collide hashes every key to 0: a test seam under which every
	// probe meets the same bucket, and only the tokens an entry holds
	// tell prefixes apart.
	collide bool
}

// opBucket holds two entries and their hashes in one cache line, so a
// probe dereferences only an entry whose hash matches.
type opBucket struct {
	tags [2]atomic.Uint64 // tags[w] is ways[w]'s hash
	ways [2]atomic.Pointer[opState]
}

func newOpMemo() *opMemo {
	return &opMemo{
		buckets: make([]opBucket, opMemoBuckets),
		mask:    opMemoBuckets - 1,
		admits:  make([]atomic.Uint64, 4*opMemoBuckets),
	}
}

// key is the hash a prefix is filed under.
func (mm *opMemo) key(h uint64) uint64 {
	if mm.collide {
		return 0
	}
	return h
}

// bucket is where entries hashed h live.
func (mm *opMemo) bucket(h uint64) *opBucket {
	return &mm.buckets[(h*0x9E3779B97F4A7C15>>32)&mm.mask]
}

// probe returns an entry filed under h for a prefix of n tokens, its
// tokens not yet compared.
func (mm *opMemo) probe(h uint64, n int) *opState {
	b := mm.bucket(h)
	for w := range b.ways {
		if b.tags[w].Load() != h {
			continue
		}
		if e := b.ways[w].Load(); e != nil && e.hash == h && len(e.toks) == n {
			return e
		}
	}
	return nil
}

// touch sets e's reference bit, writing only when it is clear.
func (e *opState) touch() *opState {
	if !e.ref.Load() {
		e.ref.Store(true)
	}
	return e
}

// find returns the state after exactly key (h its hash), or nil.
func (mm *opMemo) find(h uint64, key []plan.Tok) *opState {
	if e := mm.probe(mm.key(h), len(key)); e != nil && slices.Equal(e.toks, key) {
		return e.touch()
	}
	return nil
}

// longestPrefix returns the state just before the last constant of seq
// whose prefix is memoized (never the empty prefix), or nil. Only the
// longest candidate's tokens are compared: a collision there costs the
// shorter prefixes too, a miss all the same.
func (mm *opMemo) longestPrefix(seq []plan.Tok) *opState {
	var best *opState
	h := uint64(fnvOffset)
	for i, t := range seq {
		if t.Str && i > 0 {
			if e := mm.probe(mm.key(h), i); e != nil {
				best = e
			}
		}
		h = hashTok(h, t)
	}
	if best == nil || !slices.Equal(best.toks, seq[:len(best.toks)]) {
		return nil
	}
	return best.touch()
}

// admit records a miss of the prefix hashed h and reports whether it
// was already recorded: its second sighting. As in the serving text
// cache's admission table, a hash writes its tag into two slots chosen
// by differently mixed bits and is admitted when either still held it,
// so two prefixes that share one slot and recur in turn are both
// admitted through their other slots. Racing misses may lose a tag,
// which costs a sighting.
func (mm *opMemo) admit(h uint64) bool {
	h = mm.key(h)
	tag := h | 1
	m := uint64(len(mm.admits) - 1)
	held := mm.admits[(h*0xBF58476D1CE4E5B9>>32)&m].Swap(tag) == tag
	return mm.admits[(h*0x94D049BB133111EB>>32)&m].Swap(tag) == tag || held
}

// put publishes the state (h, c) after key, hashed hk, as a heap copy:
// into an empty way of its bucket, else over the first entry whose
// reference bit is clear, else — both recently used — over the one a
// hash bit picks, with both bits cleared (CLOCK's second chance with a
// hand of two). A way's entry is stored before its tag, and racing puts
// to one bucket each store a whole entry; a probe checks both.
func (mm *opMemo) put(hk uint64, key []plan.Tok, h, c nn.Vec32) {
	hk = mm.key(hk)
	if mm.find(hk, key) != nil {
		return // a racing encoder of the same prefix got here first
	}
	e := &opState{hash: hk}
	e.toks = append([]plan.Tok(nil), key...)
	e.hc = make(nn.Vec32, len(h)+len(c))
	copy(e.hc, h)
	copy(e.hc[len(h):], c)
	b := mm.bucket(hk)
	victim := -1
	for w := range b.ways {
		old := b.ways[w].Load()
		if old == nil {
			victim = w
			break
		}
		if victim < 0 && !old.ref.Load() {
			victim = w
		}
	}
	if victim < 0 {
		for w := range b.ways {
			b.ways[w].Load().ref.Store(false)
		}
		victim = int(hk>>63) & 1
	}
	b.ways[victim].Store(e)
	b.tags[victim].Store(hk)
}
