package widedeep

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"autoview/internal/featenc"
	"autoview/internal/nn"
	"autoview/internal/obs"
	"autoview/internal/plan"
)

// perPairGrad is the training pass Fit ran before a batch's operators
// were shared, kept as the oracle: Model.forward — every operator of
// both plans encoded where it is used — then backward, pair by pair,
// straight into the canonical gradients. It returns the summed squared
// errors.
func perPairGrad(m *Model, samples []Sample, batch []int) float64 {
	nn.ZeroGrads(m.Params())
	var loss float64
	for _, si := range batch {
		s := samples[si]
		pred, back := m.forward(s.F)
		d := pred - (s.Y-m.yMean)/m.yStd
		back(2 * d / float64(len(batch)))
		loss += d * d
	}
	return loss
}

// sharedOpSamples builds pairs by hand from a pool of five operators so
// that sharing is certain: operators recur across pairs, across the two
// plans of a pair, and within one plan; one pair has no view plan.
func sharedOpSamples() []Sample {
	kw := func(s string) plan.Tok { return plan.Tok{Text: s} }
	str := func(s string) plan.Tok { return plan.Tok{Text: s, Str: true} }
	ops := [][]plan.Tok{
		{kw("scan"), kw("user_memo")},
		{kw("filter"), kw("dt"), kw("="), str("10"), kw("and"), kw("memo_type"), kw("="), str("pen")},
		{kw("scan"), kw("user_action")},
		{kw("join"), kw("user_id"), kw("="), kw("user_id")},
		{kw("filter"), kw("dt"), kw("="), str("22")},
	}
	plans := func(ids ...int) [][]plan.Tok {
		out := make([][]plan.Tok, len(ids))
		for i, id := range ids {
			out[i] = ops[id]
		}
		return out
	}
	rng := rand.New(rand.NewSource(17))
	pair := func(q, v [][]plan.Tok) Sample {
		num := make([]float64, featenc.NumericDim)
		for i := range num {
			num[i] = rng.Float64() * 10
		}
		return Sample{
			F: featenc.Features{QueryPlan: q, ViewPlan: v, Schema: []string{"user_id", "dt", "memo"}, Numeric: num},
			Y: rng.Float64() * 5,
		}
	}
	return []Sample{
		pair(plans(0, 1, 2, 4, 3), plans(0, 1)),
		pair(plans(0, 1, 0, 1, 3), plans(0, 1)), // a self-join: operators 0 and 1 twice in one plan
		pair(plans(2, 4), nil),                  // no view plan
		pair(plans(0, 4, 2, 4, 3), plans(2, 4)),
		pair(plans(0, 1, 2, 4, 3), plans(0, 1, 2, 4, 3)),
		pair(plans(2, 4, 2, 4, 3), plans(2, 4)),
		pair(plans(0, 1), plans(0)),
	}
}

// fittedModel builds a small model of cfg's encoder and head (WideOnly,
// DeepOnly) over the pool's vocabulary, fitted to samples' numerics and
// targets.
func fittedModel(cfg Config, samples []Sample) *Model {
	vocab := featenc.NewVocabFromWords([]string{"<unk>", "scan", "filter", "join", "user_memo", "user_action", "user_id", "dt", "memo", "memo_type", "=", "and"})
	cfg.WideDim, cfg.DeepHidden, cfg.RegHidden = 3, 5, 4
	m := New(vocab, cfg, rand.New(rand.NewSource(23)))
	numerics := make([][]float64, len(samples))
	for i, s := range samples {
		numerics[i] = s.F.Numeric
	}
	m.Norm = featenc.FitNormalizer(numerics)
	m.fitTargetScale(samples)
	return m
}

// TestBatchGradMatchesPerPairOracle holds the three-pass batch gradient
// to the per-pair pass it replaced, on every parameter of all four
// encoder variants under the paper's head and the WideOnly and DeepOnly
// ablations: a full batch, a one-pair batch, the short batch an epoch
// ends on, and batches around the pair with no view plan. The two differ
// only in how the per-use terms of an operator's gradient are
// associated, so they agree to rounding.
func TestBatchGradMatchesPerPairOracle(t *testing.T) {
	samples := sharedOpSamples()
	batches := [][]int{
		{0, 1, 2, 3, 4, 5, 6},
		{1},
		{2},
		{5, 6},
		{6, 2, 4, 0},
	}
	for _, head := range []struct {
		name               string
		wideOnly, deepOnly bool
	}{{"", false, false}, {"/WideOnly", true, false}, {"/DeepOnly", false, true}} {
		for variant, enc := range Variants() {
			enc.EmbedDim, enc.Hidden = 4, 3
			name := variant + head.name
			for _, par := range []int{1, 3} {
				m := fittedModel(Config{Encoder: enc, WideOnly: head.wideOnly, DeepOnly: head.deepOnly}, samples)
				g := m.newBatchGrad(samples, par)
				for _, batch := range batches {
					wantLoss := perPairGrad(m, samples, batch)
					var want [][]float64
					for _, p := range m.Params() {
						want = append(want, append([]float64(nil), p.Grad...))
					}
					// Garbage in the canonical gradients must not survive.
					for _, p := range m.Params() {
						for i := range p.Grad {
							p.Grad[i] = 1e9
						}
					}
					gotLoss := g.step(batch)
					if math.Abs(gotLoss-wantLoss) > 1e-12*(1+wantLoss) {
						t.Errorf("%s P=%d batch %v: loss %.17g, per-pair %.17g", name, par, batch, gotLoss, wantLoss)
					}
					nonzero := 0
					for pi, p := range m.Params() {
						for i, got := range p.Grad {
							if w := want[pi][i]; math.Abs(got-w) > 1e-9*math.Abs(w)+1e-15 {
								t.Errorf("%s P=%d batch %v: %s grad[%d] = %.17g, per-pair %.17g", name, par, batch, p, i, got, w)
							} else if w != 0 {
								nonzero++
							}
						}
					}
					if nonzero == 0 {
						t.Errorf("%s batch %v: oracle gradient is all zero", name, batch)
					}
				}
			}
		}
	}
}

// TestBatchGradCountsOperatorSharing pins the two counters to a batch
// whose sharing is known: 23 operator uses over 5 distinct operators.
func TestBatchGradCountsOperatorSharing(t *testing.T) {
	samples := sharedOpSamples()
	m := fittedModel(Config{Encoder: featenc.Config{EmbedDim: 4, Hidden: 3}}, samples)
	g := m.newBatchGrad(samples, 1)
	if len(g.seqs) != 5 {
		t.Fatalf("interned %d operators, want 5", len(g.seqs))
	}
	uses, distinct, pairs := obsTrainOps.Value(), obsTrainOpsDistinct.Value(), pairsCounter()
	g.step([]int{0, 1, 2, 3})
	if got := obsTrainOps.Value() - uses; got != 7+7+2+7 {
		t.Errorf("wd.train.ops moved by %d, want 23", got)
	}
	if got := obsTrainOpsDistinct.Value() - distinct; got != 5 {
		t.Errorf("wd.train.ops.distinct moved by %d, want 5", got)
	}
	if got := pairsCounter() - pairs; got != 4 {
		t.Errorf("nn.train.samples moved by %d, want the batch's 4 pairs", got)
	}
}

// TestFitBatchAllocsIndependentOfOperatorUses: the allocations of one
// batch gradient grow with the pairs and with the distinct operators,
// not with how often the plans use them — four pairs over the same
// three operators cost the same whether their plans hold 3 operators or
// 24, and each further pair costs a fixed amount.
func TestFitBatchAllocsIndependentOfOperatorUses(t *testing.T) {
	g := operatorUseBatchGrad()
	allocs := func(batch []int) float64 {
		g.step(batch) // grow the batch buffers first
		return testing.AllocsPerRun(10, func() { g.step(batch) })
	}
	short4 := allocs(short4Batch)
	long4 := allocs(long4Batch)
	short8 := allocs(short8Batch)
	short12 := allocs(short12Batch)
	if long4 != short4 {
		t.Errorf("4 pairs, 3 distinct operators: %v allocations with 31 uses per pair, %v with 5", long4, short4)
	}
	if short8-short4 != short12-short8 {
		t.Errorf("allocations not linear in pairs: 4 → %v, 8 → %v, 12 → %v", short4, short8, short12)
	}
}

// The batches of the operator-use allocation tests: 4, 8 and 12 pairs
// whose plans hold 3 and 2 operators, and 4 pairs over the same three
// operators with plans of 24 and 7.
var (
	short4Batch  = []int{0, 1, 2, 3}
	long4Batch   = []int{12, 13, 14, 15}
	short8Batch  = []int{0, 1, 2, 3, 4, 5, 6, 7}
	short12Batch = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
)

// operatorUseBatchGrad builds the serial batch gradient those batches
// index: 12 pairs whose plans use three operators once each, then 4
// whose plans repeat them.
func operatorUseBatchGrad() *batchGrad {
	base := sharedOpSamples()
	ops := base[0].F.QueryPlan[:3]
	long := make([][]plan.Tok, 0, 24)
	for len(long) < 24 {
		long = append(long, ops...)
	}
	var samples []Sample
	for i := 0; i < 12; i++ {
		s := base[i%len(base)]
		s.F.QueryPlan, s.F.ViewPlan = ops, ops[:2]
		samples = append(samples, s)
	}
	for i := 0; i < 4; i++ {
		s := base[i]
		s.F.QueryPlan, s.F.ViewPlan = long, long[:7]
		samples = append(samples, s)
	}
	m := fittedModel(Config{Encoder: featenc.Config{EmbedDim: 4, Hidden: 3}}, samples)
	return m.newBatchGrad(samples, 1)
}

// TestFitBatchAllocBytesHalved gates the bytes one warm batch gradient
// allocates, on the batches of TestFitBatchAllocsIndependentOfOperatorUses,
// at half of what the batch gradient allocated when each operator's
// forward ran twice and every tape lived on the heap. Those figures
// (bytes per step, linux/amd64, go1.24) were 45,886 (4 short pairs),
// 79,282 (4 long), 71,410 (8 short) and 96,947 (12 short); with the
// passes batched, their tapes kept from batch to batch, they are about
// 1,400 on each.
func TestFitBatchAllocBytesHalved(t *testing.T) {
	g := operatorUseBatchGrad()
	for _, c := range []struct {
		batch []int
		heap  float64 // bytes per step with every tape on the heap
	}{{short4Batch, 45886}, {long4Batch, 79282}, {short8Batch, 71410}, {short12Batch, 96947}} {
		g.step(c.batch) // warm the arena and the batch buffers
		var before, after runtime.MemStats
		const runs = 20
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			g.step(c.batch)
		}
		runtime.ReadMemStats(&after)
		got := float64(after.TotalAlloc-before.TotalAlloc) / runs
		if got > c.heap/2 {
			t.Errorf("batch %v: %.0f bytes per step, want at most %.0f (half of %.0f)", c.batch, got, c.heap/2, c.heap)
		}
	}
}

// pairsCounter reads nn.train.samples (registration is idempotent).
func pairsCounter() int64 {
	return obs.Default.Counter("nn.train.samples", "").Value()
}
