package widedeep

import (
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"autoview/internal/featenc"
	"autoview/internal/nn"
	"autoview/internal/obs"
	"autoview/internal/plan"
	"autoview/internal/testutil"
)

// disableObs pins the global obs registry off for one test: an enabled
// span allocates, which would pollute the allocation counts (other
// tests or packages may have enabled it).
func disableObs(t *testing.T) {
	t.Helper()
	if obs.Enabled() {
		obs.Disable()
		t.Cleanup(obs.Enable)
	}
}

// The serving path (Predict/PredictBatch) runs the forward-only arena
// fast path on float32 kernels; these tests pin its contracts: it stays
// inside the pinned tolerance envelope of the f64 training forward
// (which PredictReference exposes unchanged), is itself deterministic,
// and allocates nothing in the steady state.

// f32 parity budget of the full forward against the f64 training
// forward. Observed worst case across all variants on the seeded inputs
// is ~3e-7 relative; the budget leaves ~30x headroom without ever
// approaching a magnitude that could flip a view ranking (see the
// rank-preservation test in internal/experiments). Documented in
// PERFORMANCE.md.
const (
	predictRTol = 1e-5
	predictATol = 1e-6
)

func inferTestModel(t *testing.T, enc featenc.Config, cfg Config) (*Model, []Sample) {
	t.Helper()
	cat := testCatalog(t)
	vocab := featenc.NewVocab(cat, []string{"cnt"})
	cfg.Encoder = enc
	m := New(vocab, cfg, rand.New(rand.NewSource(7)))
	samples := syntheticSamples(t, cat, 30)
	numerics := make([][]float64, len(samples))
	for i := range samples {
		numerics[i] = samples[i].F.Numeric
	}
	m.Norm = featenc.FitNormalizer(numerics)
	// Non-trivial output scaling so the de-standardization step is part
	// of the parity check too.
	m.yMean, m.yStd = 0.3, 2.1
	return m, samples
}

// TestPredictMatchesForwardAllVariants is the parity harness for every
// encoder variant and both wide/deep ablations, twice per input (the
// second call replays a warm arena): PredictReference must equal the
// de-standardized training forward with ==, and the f32 kernel path
// must agree with it within the pinned tolerance while being
// bit-deterministic across warm-arena replays.
func TestPredictMatchesForwardAllVariants(t *testing.T) {
	variants := Variants()
	names := make([]string, 0, len(variants))
	for name := range variants {
		names = append(names, name)
	}
	sort.Strings(names)
	type cfgCase struct {
		name string
		enc  featenc.Config
		cfg  Config
	}
	cases := make([]cfgCase, 0, len(names)+2)
	for _, name := range names {
		cases = append(cases, cfgCase{name, variants[name], Config{WideDim: 4, DeepHidden: 6, RegHidden: 4}})
	}
	cases = append(cases,
		cfgCase{"WideOnly", featenc.Config{EmbedDim: 4, Hidden: 4}, Config{WideDim: 4, DeepHidden: 6, RegHidden: 4, WideOnly: true}},
		cfgCase{"DeepOnly", featenc.Config{EmbedDim: 4, Hidden: 4}, Config{WideDim: 4, DeepHidden: 6, RegHidden: 4, DeepOnly: true}},
	)
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			c.enc.EmbedDim, c.enc.Hidden = 4, 4
			m, samples := inferTestModel(t, c.enc, c.cfg)
			for i := 0; i < 25; i++ {
				f := samples[i%len(samples)].F
				want, _ := m.forward(f)
				want = want*m.yStd + m.yMean

				if got := m.PredictReference(f); got != want { // bit-identity of the f64 reference is the property under test
					t.Fatalf("input %d: PredictReference = %v, forward = %v (diff %g)", i, got, want, got-want)
				}

				// f32 kernel path: pinned tolerance + determinism.
				got := m.Predict(f)
				if !nn.AlmostEqual(got, want, predictRTol, predictATol) {
					t.Fatalf("input %d: f32 Predict = %v, forward = %v (diff %g) outside rtol %g / atol %g",
						i, got, want, got-want, predictRTol, predictATol)
				}
				if again := m.Predict(f); again != got { // warm-arena determinism of the f32 path is the property under test
					t.Fatalf("input %d: warm-arena f32 Predict drifted: %v != %v", i, again, got)
				}
			}
		})
	}
}

// TestPredictBatchBitIdenticalAcrossParallelism checks every element of
// PredictBatch against standalone Predict, for all four encoder variants
// at several worker counts: per-worker arenas must not leak state
// between items, and an operator vector shared through the batch slab
// must be the one Predict computes in place (the -race run covers the
// data-race side of the same property). The batches are the seeded
// synthetic pairs (with repeats) and hand-built ones whose sharing is
// certain: a repeated pair, an operator used twice in one plan, a pair
// with no view plan, and a one-pair batch.
func TestPredictBatchBitIdenticalAcrossParallelism(t *testing.T) {
	check := func(t *testing.T, m *Model, fs []featenc.Features) {
		t.Helper()
		want := make([]float64, len(fs))
		for i, f := range fs {
			want[i] = m.Predict(f)
		}
		for _, par := range []int{0, 1, 3, 8} {
			got := m.PredictBatch(fs, par)
			for i := range want {
				if got[i] != want[i] { // bit-identity is the property under test
					t.Fatalf("%d pairs, parallelism %d, element %d: %v != %v", len(fs), par, i, got[i], want[i])
				}
			}
		}
	}
	shared := sharedOpSamples()
	shared = append(shared, shared[0], shared[2]) // repeated pairs, one of them without a view plan
	for name, enc := range Variants() {
		enc.EmbedDim, enc.Hidden = 4, 4
		t.Run(name, func(t *testing.T) {
			m, samples := inferTestModel(t, enc, Config{WideDim: 4, DeepHidden: 6, RegHidden: 4})
			fs := make([]featenc.Features, 40)
			for i := range fs {
				fs[i] = samples[i%len(samples)].F
			}
			check(t, m, fs)

			m = fittedModel(Config{Encoder: enc}, shared)
			fs = fs[:0]
			for _, s := range shared {
				fs = append(fs, s.F)
			}
			check(t, m, fs)
			check(t, m, fs[1:2]) // one pair, its operators 0 and 1 each used three times
			check(t, m, fs[2:3]) // one pair, no view plan
		})
	}
}

// TestPredictBatchCountsOperatorSharing pins the four sharing counters
// to batches whose sharing is known. Hand-built pairs, which have no
// memo slot: 8 plan uses, all encoded, 23 operator uses over 5 distinct
// operators, however often the batch is served. PlanFeat-backed pairs:
// encoded = uses cold and 0 warm, and a warm batch counts no operators
// (wd.infer.ops is the operator uses of the plans that were encoded).
// Predict moves none of them.
func TestPredictBatchCountsOperatorSharing(t *testing.T) {
	samples := sharedOpSamples()
	m := fittedModel(Config{Encoder: featenc.Config{EmbedDim: 4, Hidden: 3}}, samples)
	fs := make([]featenc.Features, 4)
	for i := range fs {
		fs[i] = samples[i].F
	}
	counters := []*obs.Counter{obsInferPlans, obsInferPlansEncoded, obsInferOps, obsInferOpsDistinct}
	var base [4]int64
	mark := func() {
		for i, c := range counters {
			base[i] = c.Value()
		}
	}
	moved := func(what string, want [4]int64) {
		t.Helper()
		for i, c := range counters {
			if got := c.Value() - base[i]; got != want[i] {
				t.Errorf("%s: %s moved by %d, want %d", what, c.Name(), got, want[i])
			}
		}
		mark()
	}
	mark()
	m.Predict(fs[0])
	moved("Predict", [4]int64{})
	m.PredictBatch(fs, 1)
	moved("hand-built batch", [4]int64{8, 8, 7 + 7 + 2 + 7, 5})
	m.PredictBatch(fs, 1)
	moved("hand-built batch again", [4]int64{8, 8, 7 + 7 + 2 + 7, 5})

	im, _ := inferTestModel(t, featenc.Config{EmbedDim: 4, Hidden: 4}, Config{WideDim: 4, DeepHidden: 6, RegHidden: 4})
	mp := newMemoPlans(t)
	fs = mp.batch([]memoPair{{0, view(0)}, {0, view(1)}, {1, view(0)}})
	var ops int64
	var distinct opInterner
	for _, f := range fs {
		for _, p := range [][][]plan.Tok{f.QueryPlan, f.ViewPlan} {
			ops += int64(len(p))
			for _, seq := range p {
				distinct.intern(seq)
			}
		}
	}
	mark()
	im.PredictBatch(fs, 1)
	moved("cold PlanFeat batch", [4]int64{6, 6, ops, int64(len(distinct.seqs))})
	im.Predict(fs[0])
	moved("Predict", [4]int64{})
	im.PredictBatch(fs, 1)
	moved("warm PlanFeat batch", [4]int64{6, 0, 0, 0})
}

// TestPredictBatchCountsMemoReuse: per batch, wd.infer.ops.tokens
// counts the tokens of the distinct operators encoded, wd.infer.ops.steps
// the LSTM1 steps run for them, and wd.infer.ops.memoized and .resumed
// the operators the mirror's LSTM1 memo served whole or from a prefix.
// On a fresh mirror the first batch finds nothing whole; by the third
// sighting every operator is memoized and no step runs. Predict moves
// none of them, and every answer keeps Predict's bits.
func TestPredictBatchCountsMemoReuse(t *testing.T) {
	m, _ := inferTestModel(t, featenc.Config{EmbedDim: 4, Hidden: 4}, Config{WideDim: 4, DeepHidden: 6, RegHidden: 4})
	mp := newMemoPlans(t)
	pairs := []memoPair{{0, view(0)}, {1, view(1)}, {2, view(2)}, {3, view(3)}}
	want := mp.oracle(m, pairs)
	fs := mp.batch(pairs)
	for i := range fs {
		fs[i].QueryFeat, fs[i].ViewFeat = nil, nil // encode every plan each batch
	}
	var distinct opInterner
	tokens := 0
	for _, f := range fs {
		for _, p := range [][][]plan.Tok{f.QueryPlan, f.ViewPlan} {
			for _, seq := range p {
				if before := len(distinct.seqs); distinct.intern(seq) == before {
					tokens += len(seq)
				}
			}
		}
	}
	counters := []*obs.Counter{obsInferOpsTokens, obsInferOpsSteps, obsInferOpsMemoized, obsInferOpsResumed}
	var base [4]int64
	mark := func() [4]int64 {
		var d [4]int64
		for i, c := range counters {
			d[i] = c.Value() - base[i]
			base[i] = c.Value()
		}
		return d
	}
	mark()
	m.Predict(fs[0])
	if d := mark(); d != [4]int64{} {
		t.Fatalf("Predict moved tokens, steps, memoized, resumed by %v", d)
	}
	m.InvalidateKernels() // Predict fills the memo too
	n := int64(len(distinct.seqs))
	for round := 1; round <= 3; round++ {
		requireSame(t, "batch "+strconv.Itoa(round), m.PredictBatch(fs, 1), want)
		d := mark()
		if d[0] != int64(tokens) || d[1] > d[0] || d[2]+d[3] > n {
			t.Fatalf("batch %d of %d operators, %d tokens: tokens, steps, memoized, resumed moved by %v", round, n, tokens, d)
		}
		if round == 1 && d[2] != 0 {
			t.Fatalf("the first batch on a fresh mirror found %d operators whole", d[2])
		}
		if round == 3 && d != [4]int64{int64(tokens), 0, n, 0} {
			t.Fatalf("third batch: tokens, steps, memoized, resumed moved by %v, want %v", d, [4]int64{int64(tokens), 0, n, 0})
		}
	}
}

// TestPredictZeroAlloc is the allocation-regression gate on the single
// prediction path: once the pooled arena is warm, Predict must not
// touch the heap at all.
func TestPredictZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops random Put items under -race; allocation counts need the plain build")
	}
	disableObs(t)
	m, samples := inferTestModel(t, featenc.Config{EmbedDim: 4, Hidden: 4}, Config{WideDim: 4, DeepHidden: 6, RegHidden: 4})
	f := samples[0].F
	var sink float64
	// Warm up past the one-time fills: the f32 mirror, the pooled arena's
	// high-water mark.
	for i := 0; i < 3; i++ {
		sink = m.Predict(f)
	}
	if n := testutil.Mallocs(200, func() { sink = m.Predict(f) }); n != 0 {
		t.Fatalf("steady-state Predict allocates %d objects over 200 calls, want 0", n)
	}
	_ = sink
}

// TestPredictBatchAllocsBatchSizeIndependent pins the serial batch
// path's cost model: a fixed per-batch constant (result slice, arena
// bookkeeping) and zero per-element allocations — so an 8x larger batch
// must cost exactly the same number of allocations.
func TestPredictBatchAllocsBatchSizeIndependent(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops random Put items under -race; allocation counts need the plain build")
	}
	disableObs(t)
	m, samples := inferTestModel(t, featenc.Config{EmbedDim: 4, Hidden: 4}, Config{WideDim: 4, DeepHidden: 6, RegHidden: 4})
	batch := func(n int) []featenc.Features {
		fs := make([]featenc.Features, n)
		for i := range fs {
			fs[i] = samples[i%len(samples)].F
		}
		return fs
	}
	small, large := batch(8), batch(64)
	aSmall := testing.AllocsPerRun(100, func() { m.PredictBatch(small, 1) })
	aLarge := testing.AllocsPerRun(100, func() { m.PredictBatch(large, 1) })
	if aLarge != aSmall {
		t.Fatalf("PredictBatch allocs grow with batch size: %v (n=8) vs %v (n=64)", aSmall, aLarge)
	}
	// The per-batch constant itself must stay pinned small.
	const maxPerBatch = 8
	if aSmall > maxPerBatch {
		t.Fatalf("PredictBatch per-batch allocs = %v, want <= %d", aSmall, maxPerBatch)
	}
}

// TestPredictBatchAllocsIndependentOfOperatorUses: the interner's
// table, the per-use indices and the operator slab all come from pooled
// scratch, so the same four pairs over the same three operators cost
// the same allocations whether each pair's plans hold 5 operator uses
// or 31.
func TestPredictBatchAllocsIndependentOfOperatorUses(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops random Put items under -race; allocation counts need the plain build")
	}
	disableObs(t)
	base := sharedOpSamples()
	m := fittedModel(Config{Encoder: featenc.Config{EmbedDim: 4, Hidden: 3}}, base)
	ops := base[0].F.QueryPlan[:3]
	long := make([][]plan.Tok, 0, 24)
	for len(long) < 24 {
		long = append(long, ops...)
	}
	var short4, long4 []featenc.Features
	for i := 0; i < 4; i++ {
		f := base[i].F
		f.QueryPlan, f.ViewPlan = ops, ops[:2]
		short4 = append(short4, f)
		f.QueryPlan, f.ViewPlan = long, long[:7]
		long4 = append(long4, f)
	}
	m.PredictBatch(long4, 1) // grow the pooled scratch and the arena first
	aShort := testing.AllocsPerRun(100, func() { m.PredictBatch(short4, 1) })
	aLong := testing.AllocsPerRun(100, func() { m.PredictBatch(long4, 1) })
	if aShort != aLong {
		t.Fatalf("4 pairs, 3 distinct operators: %v allocations with 5 uses per pair, %v with 31", aShort, aLong)
	}
}
