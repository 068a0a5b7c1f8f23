package featenc

import (
	"math"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"autoview/internal/catalog"
	"autoview/internal/nn"
	"autoview/internal/plan"
	"autoview/internal/testutil"
)

// memoConfigs are the four encoder configurations: the full W-D
// encoder and the three ablations.
var memoConfigs = []struct {
	name string
	cfg  Config
}{
	{"full", Config{EmbedDim: 6, Hidden: 5}},
	{"N-Kw", Config{EmbedDim: 6, Hidden: 5, KeywordOneHot: true}},
	{"N-Str", Config{EmbedDim: 6, Hidden: 5, StringOneHot: true}},
	{"N-Exp", Config{EmbedDim: 6, Hidden: 5, NoSequence: true}},
}

// memoPair is a mirror with its memo and a memo-less twin of the same
// weights: the reference every memoized InferOp must equal bit for bit.
type memoPair struct {
	m, ref *Encoder32
}

func newMemoPair(cat *catalog.Catalog, cfg Config) memoPair {
	e := NewEncoder(NewVocab(cat, nil), cfg, rand.New(rand.NewSource(5)))
	ref := NewEncoder32(e)
	ref.memo = nil
	return memoPair{m: NewEncoder32(e), ref: ref}
}

// check runs the memoized InferOp on seq, requires its vector to have
// the reference's bits, and returns what it reused and its steps.
func (p memoPair) check(t testing.TB, what string, seq []plan.Tok) (OpReuse, int) {
	t.Helper()
	D := p.m.PlanDim()
	got, want := make(nn.Vec32, D), make(nn.Vec32, D)
	reuse, steps := p.m.InferOp(got, seq, nn.NewArena())
	if r, s := p.ref.InferOp(want, seq, nn.NewArena()); r != OpCold || (s != len(seq) && p.ref.lstm1 != nil) {
		t.Fatalf("%s: the memo-less mirror reports %d after %d steps", what, r, s)
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s %v: element %d = %v after reuse %d, %d steps; from the zero state %v",
				what, seq, i, got[i], reuse, steps, want[i])
		}
	}
	return reuse, steps
}

func kw(s string) plan.Tok  { return plan.Tok{Text: s} }
func str(s string) plan.Tok { return plan.Tok{Text: s, Str: true} }

// filterOp is a three-constant filter; its constants vary per call.
func filterOp(cat, dt, val string) []plan.Tok {
	return []plan.Tok{kw("Filter"), kw("AND"), kw("AND"), kw("EQ"), kw("memo_type"), str(cat),
		kw("EQ"), kw("dt"), str(dt), kw("LT"), kw("user_id"), str(val)}
}

// TestInferOpMemoBitIdentical holds the memoized InferOp to a memo-less
// mirror of the same weights, bit for bit, in all four encoder
// configurations: cold, once more (when the states are admitted), whole
// hits, resumes before the last and before a middle constant, operators
// without constants, the example plans' operators, and the same calls
// with every prefix hashed to 0 (where only the tokens tell entries
// apart). It also pins which of the three cases each call was.
func TestInferOpMemoBitIdentical(t *testing.T) {
	cat := testCatalog(t)
	q, v := examplePlans(t, cat)
	f := Extract(q, v, cat)
	var plans [][]plan.Tok
	plans = append(plans, f.QueryPlan...)
	plans = append(plans, f.ViewPlan...)

	a := filterOp("'pen'", "'1010'", "7")
	scan := []plan.Tok{kw("Scan"), kw("user_memo")}
	type call struct {
		what  string
		seq   []plan.Tok
		reuse OpReuse
		steps int // -1: all of them
	}
	calls := []call{
		{"first sight", a, OpCold, -1},
		{"second sight", a, OpCold, -1},
		{"whole hit", a, OpMemoized, 0},
		{"new last constant", filterOp("'pen'", "'1010'", "8"), OpResumed, 1},
		{"new middle constant", filterOp("'pen'", "'1011'", "7"), OpResumed, 4},
		{"new first constant", filterOp("'ink'", "'1010'", "7"), OpResumed, 7},
		{"no constant", scan, OpCold, -1},
		{"no constant again", scan, OpCold, -1},
		{"no constant, hit", scan, OpMemoized, 0},
		{"empty", nil, OpCold, 0},
		{"empty again", nil, OpCold, 0},
		{"empty, hit", nil, OpMemoized, 0},
		{"whole hit after the others", a, OpMemoized, 0},
	}
	for _, c := range memoConfigs {
		for _, collide := range []bool{false, true} {
			name := c.name
			if collide {
				name += ", every prefix hashed to 0"
			}
			t.Run(name, func(t *testing.T) {
				p := newMemoPair(cat, c.cfg)
				if p.m.memo != nil {
					p.m.memo.collide = collide
				}
				for _, cl := range calls {
					reuse, steps := p.check(t, cl.what, cl.seq)
					if c.cfg.NoSequence {
						if reuse != OpCold || steps != 0 {
							t.Fatalf("%s: N-Exp has no LSTM1, yet InferOp reports %d after %d steps", cl.what, reuse, steps)
						}
						continue
					}
					want := cl.steps
					if want < 0 {
						want = len(cl.seq)
					}
					// Colliding prefixes share one bucket, so a case may
					// find its entry displaced; the bits are what count.
					if !collide && (reuse != cl.reuse || steps != want) {
						t.Fatalf("%s: reuse %d after %d steps, want %d after %d", cl.what, reuse, steps, cl.reuse, want)
					}
				}
				for round := 0; round < 3; round++ {
					for i, seq := range plans {
						p.check(t, "example operator "+strconv.Itoa(i), seq)
					}
				}
			})
		}
	}

	// Encoders racing on one mirror: every vector keeps its bits while
	// admissions, puts and evictions interleave.
	t.Run("concurrent", func(t *testing.T) {
		p := newMemoPair(cat, memoConfigs[0].cfg)
		var seqs [][]plan.Tok
		for i := 0; i < 40; i++ {
			seqs = append(seqs, filterOp("'pen'", "'"+strconv.Itoa(i%5)+"'", strconv.Itoa(i%9)))
		}
		seqs = append(seqs, plans...)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < 4; round++ {
					for i := range seqs {
						p.check(t, "concurrent", seqs[(i*(g+1)+round)%len(seqs)])
					}
				}
			}()
		}
		wg.Wait()
	})
}

// FuzzInferOpMemo drives one memoized mirror per configuration with
// operators built from the fuzzed constants and shape, in an order that
// revisits them (so states are admitted, hit and resumed from), with
// every prefix hashed to 0 when collide is set; every vector must have
// the memo-less mirror's bits. The mirrors persist across inputs, so
// the memo also holds what earlier inputs left, filed under either
// hashing.
func FuzzInferOpMemo(f *testing.F) {
	f.Add("'pen'", "'1010'", "1234.25", uint8(0), false)
	f.Add("'pen'", "'pen'", "", uint8(0x5a), true)
	f.Add("", "a\xfe", "\xff", uint8(0xff), false)
	cat := catalog.New()
	var pairs []memoPair
	for _, c := range memoConfigs {
		pairs = append(pairs, newMemoPair(cat, c.cfg))
	}
	f.Fuzz(func(t *testing.T, c1, c2, c3 string, shape uint8, collide bool) {
		p := pairs[int(shape)%len(pairs)]
		if p.m.memo != nil {
			p.m.memo.collide = collide
		}
		base := filterOp(c1, c2, c3)
		// Shape bits drop a token or flip its Str bit, so prefixes of
		// one operator meet lookalikes of another.
		variant := append([]plan.Tok(nil), base...)
		if shape&0x10 != 0 {
			variant[4].Str = !variant[4].Str
		}
		if shape&0x20 != 0 {
			variant = append(variant[:6:6], variant[7:]...)
		}
		if shape&0x40 != 0 {
			variant[len(variant)-1].Text += c1
		}
		seqs := [][]plan.Tok{base, variant, base[:5], base[:9], filterOp(c3, c2, c1), {str(c1)}}
		for round := 0; round < 3; round++ {
			for i, seq := range seqs {
				p.check(t, "operator "+strconv.Itoa(i), seq)
			}
		}
	})
}

// TestInferOpMemoAllocs: once the memo holds an operator's states, a
// whole hit allocates nothing, and neither does a resume for an
// operator whose last constant is new (its states are only admitted, on
// first sight). Arena memory is reused across calls.
func TestInferOpMemoAllocs(t *testing.T) {
	p := newMemoPair(testCatalog(t), memoConfigs[0].cfg)
	a := nn.NewArena()
	dst := make(nn.Vec32, p.m.PlanDim())
	op := filterOp("'pen'", "'1010'", "7")
	for i := 0; i < 3; i++ {
		a.Reset()
		p.m.InferOp(dst, op, a)
	}
	const runs, warm = 100, 3
	novel := make([][]plan.Tok, warm+1+runs) // Mallocs makes one more call
	for i := range novel {
		novel[i] = filterOp("'pen'", "'1010'", strconv.Itoa(1000+i))
	}
	var last OpReuse
	if n := testutil.Mallocs(runs, func() {
		a.Reset()
		last, _ = p.m.InferOp(dst, op, a)
	}); n != 0 || last != OpMemoized {
		t.Fatalf("a warm whole hit (reuse %d) allocates %d objects over %d calls, want 0", last, n, runs)
	}
	// The first resumes are warm-up: the memo admits the prefix they
	// share on its second sighting, and the arena grows to the resume's
	// shape.
	next := 0
	resume := func() {
		a.Reset()
		last, _ = p.m.InferOp(dst, novel[next], a)
		next++
	}
	for next < warm {
		resume()
	}
	if n := testutil.Mallocs(runs, resume); n != 0 || last != OpResumed {
		t.Fatalf("a warm resume (reuse %d) allocates %d objects over %d calls, want 0", last, n, runs)
	}
}
