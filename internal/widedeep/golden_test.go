package widedeep

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"autoview/internal/featenc"
	"autoview/internal/plan"
	"autoview/internal/workload"
)

// The serving forward's pinned outputs. The byte-identity tests of
// PredictBatch (and of serve) compare one build with itself, so a kernel
// that moved every estimate the same way would pass them; the hashes
// below were computed by the row-major scalar f32 kernels, and every
// later kernel must reproduce them bit for bit.

// wk1 is the WK1 workload, generated once per test binary.
var wk1 = sync.OnceValue(workload.WK1)

// wk1Fragment splits a WK1 query around its first derived table, the
// fragment estimate_novel rewrites: head through "from ( ", the fragment
// without its own `val <` bound, and the rest from " ) t1 " on. ok is
// false for a query without that shape.
func wk1Fragment(sql string) (head, frag, tail string, ok bool) {
	i := strings.Index(sql, "from ( ")
	j := strings.Index(sql, " ) t1 ")
	if i < 0 || j < i {
		return "", "", "", false
	}
	head, frag, tail = sql[:i+len("from ( ")], sql[i+len("from ( "):j], sql[j:]
	if k := strings.Index(frag, " and val < "); k >= 0 {
		frag = frag[:k]
	}
	return head, frag, tail, true
}

// planPair is one (query, view) pair of plans over WK1.
type planPair struct{ q, v *plan.Node }

// features extracts the pairs afresh: every call precomputes new
// PlanFeats, so the first PredictBatch over the result encodes every
// plan instead of reading a memoized code.
func features(ps []planPair) []featenc.Features {
	w := wk1()
	fs := make([]featenc.Features, len(ps))
	for i, p := range ps {
		fs[i] = featenc.Extract(p.q, p.v, w.Cat)
	}
	return fs
}

// novelPairs returns n seeded pairs over WK1 in the shape estimate_novel
// sends: a WK1 query whose first derived table carries a `val <` literal
// no WK1 query uses (WK1's run 200–800; these start at 1000), paired
// with that rewritten fragment as the view.
func novelPairs(tb testing.TB, seed int64, n int) []planPair {
	tb.Helper()
	w := wk1()
	var shaped []string
	for _, q := range w.Queries {
		if _, _, _, ok := wk1Fragment(q.SQL); ok {
			shaped = append(shaped, q.SQL)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	ps := make([]planPair, n)
	for i := range ps {
		head, frag, tail, _ := wk1Fragment(shaped[rng.Intn(len(shaped))])
		view := frag + " and val < " + strconv.Itoa(1000+rng.Intn(100000)) + ".25"
		q, err := plan.Parse(head+view+tail, w.Cat)
		if err != nil {
			tb.Fatal(err)
		}
		v, err := plan.Parse(view, w.Cat)
		if err != nil {
			tb.Fatal(err)
		}
		ps[i] = planPair{q, v}
	}
	return ps
}

// seenPairs returns n seeded WK1 queries, each paired with one of its
// own subqueries.
func seenPairs(seed int64, n int) []planPair {
	w := wk1()
	rng := rand.New(rand.NewSource(seed))
	ps := make([]planPair, n)
	for i := range ps {
		q := w.Queries[rng.Intn(len(w.Queries))].Plan
		subs := plan.ExtractSubqueries(q)
		ps[i] = planPair{q, subs[rng.Intn(len(subs))].Root}
	}
	return ps
}

// trainingSamples labels seen pairs with a deterministic pseudo-cost:
// the training set of the models below.
func trainingSamples(seed int64, n int) []Sample {
	fs := features(seenPairs(seed, n))
	samples := make([]Sample, n)
	for i, f := range fs {
		y := 3 + 0.4*float64(len(f.QueryPlan)) - 0.7*float64(len(f.ViewPlan)) + 0.1*f.Numeric[0]
		samples[i] = Sample{F: f, Y: y}
	}
	return samples
}

// servingShapes is the W-D configuration every served model runs
// (core's WKConfig): LSTM gates of 64 rows, dense layers of 8, 32, 56,
// 16 and 1 rows. oddShapes leaves every kernel a partial block of rows
// and of hidden units.
var (
	servingShapes = Config{Encoder: featenc.Config{EmbedDim: 16, Hidden: 16}}
	oddShapes     = Config{Encoder: featenc.Config{EmbedDim: 5, Hidden: 7}, WideDim: 5, DeepHidden: 6, RegHidden: 3}
)

// goldenModel trains one variant (enc's flags at cfg's shapes) briefly
// on WK1 so that its weights are a fitted model's, not an
// initialisation's.
func goldenModel(tb testing.TB, enc featenc.Config, cfg Config) *Model {
	tb.Helper()
	w := wk1()
	enc.EmbedDim, enc.Hidden = cfg.Encoder.EmbedDim, cfg.Encoder.Hidden
	cfg.Encoder = enc
	vocab := featenc.NewVocab(w.Cat, featenc.CollectPlanKeywords(w.Plans()))
	m := New(vocab, cfg, rand.New(rand.NewSource(11)))
	if _, err := m.Fit(trainingSamples(3, 24), TrainConfig{Epochs: 2, BatchSize: 8, Seed: 5, Parallelism: 1}); err != nil {
		tb.Fatal(err)
	}
	return m
}

// variantNames lists Variants() in a fixed order.
func variantNames() []string {
	var names []string
	for name := range Variants() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// hashOutputs is an FNV-64a hash of the outputs' bits.
func hashOutputs(ys []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, y := range ys {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(y))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestPredictGoldenBits is the serving twin of TestFitGoldenBits: for
// every encoder variant at the serving shapes and at odd ones, the
// outputs of Predict, and of PredictBatch at Parallelism 1, 2 and 8, on
// seeded WK1 pairs (seen queries with their subqueries, and novel `val <`
// literals) must hash to what the scalar row-major kernels produced.
func TestPredictGoldenBits(t *testing.T) {
	golden := map[string]string{
		"W-D/serving":   "4c4ac556d8333b7e",
		"N-Kw/serving":  "39622cea17e7fb1d",
		"N-Str/serving": "f7134845b4ca5640",
		"N-Exp/serving": "65d2adfb264d2553",
		"W-D/odd":       "e104f1bd05cbe8d7",
		"N-Kw/odd":      "1f9d15b697445522",
		"N-Str/odd":     "6855e453248b7160",
		"N-Exp/odd":     "35ff85c0a4bfb614",
	}
	pairs := append(novelPairs(t, 21, 24), seenPairs(22, 16)...)
	fs := features(pairs)
	for _, shapes := range []struct {
		name string
		cfg  Config
	}{{"serving", servingShapes}, {"odd", oddShapes}} {
		for _, name := range variantNames() {
			key := name + "/" + shapes.name
			m := goldenModel(t, Variants()[name], shapes.cfg)
			single := make([]float64, len(fs))
			for i, f := range fs {
				single[i] = m.Predict(f)
			}
			got := hashOutputs(single)
			if got != golden[key] {
				t.Errorf("%s: Predict hash %s, want %s", key, got, golden[key])
			}
			for _, par := range []int{1, 2, 8} {
				if got := hashOutputs(m.PredictBatch(features(pairs), par)); got != golden[key] {
					t.Errorf("%s P=%d: PredictBatch hash %s, want %s", key, par, got, golden[key])
				}
			}
		}
	}
}

// TestPredictFiniteOnUnseenLiterals: every variant answers a finite
// estimate for every pair of seeded fresh `val <` literals, one pair at
// a time and batched. Positivity is not asserted here: an unclamped
// regressor extrapolating on unseen literals can still go below zero.
func TestPredictFiniteOnUnseenLiterals(t *testing.T) {
	pairs := novelPairs(t, 31, 64)
	fs := features(pairs)
	for _, name := range variantNames() {
		m := goldenModel(t, Variants()[name], servingShapes)
		batch := m.PredictBatch(features(pairs), 2)
		for i, f := range fs {
			if y := m.Predict(f); math.IsNaN(y) || math.IsInf(y, 0) {
				t.Errorf("%s pair %d: Predict = %v", name, i, y)
			}
			if y := batch[i]; math.IsNaN(y) || math.IsInf(y, 0) {
				t.Errorf("%s pair %d: PredictBatch = %v", name, i, y)
			}
		}
	}
}

// BenchmarkPredictBatch times one serial PredictBatch of 16 novel WK1
// pairs on the W-D variant at the serving shapes, the miss path of
// /v1/estimate: the pairs carry no PlanFeat, so no plan code is
// memoized and every plan is encoded on every call.
func BenchmarkPredictBatch(b *testing.B) {
	m := goldenModel(b, featenc.Config{}, servingShapes)
	fs := features(novelPairs(b, 41, 16))
	for i := range fs {
		fs[i].QueryFeat, fs[i].ViewFeat = nil, nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batchSink = m.PredictBatch(fs, 1)
	}
}

// batchSink keeps BenchmarkPredictBatch's result live.
var batchSink []float64
