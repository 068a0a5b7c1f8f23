package widedeep

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"autoview/internal/catalog"
	"autoview/internal/featenc"
	"autoview/internal/nn"
	"autoview/internal/plan"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	for _, tb := range []*catalog.Table{
		{
			Name: "user_memo",
			Columns: []catalog.Column{
				{Name: "user_id", Type: catalog.TypeInt, Distinct: 40},
				{Name: "memo", Type: catalog.TypeString, Distinct: 20},
				{Name: "memo_type", Type: catalog.TypeString, Distinct: 4},
				{Name: "dt", Type: catalog.TypeString, Distinct: 5},
			},
			Stats: catalog.TableStats{Rows: 400, Bytes: 12800},
		},
		{
			Name: "user_action",
			Columns: []catalog.Column{
				{Name: "user_id", Type: catalog.TypeInt, Distinct: 40},
				{Name: "action", Type: catalog.TypeString, Distinct: 10},
				{Name: "type", Type: catalog.TypeInt, Distinct: 3},
				{Name: "dt", Type: catalog.TypeString, Distinct: 5},
			},
			Stats: catalog.TableStats{Rows: 600, Bytes: 19200},
		},
	} {
		if err := cat.Add(tb); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// syntheticSamples builds training data whose target depends on plan
// length and a predicate constant, so the model must use the encoders to
// fit it.
func syntheticSamples(t *testing.T, cat *catalog.Catalog, n int) []Sample {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	dts := []string{"10", "22", "35", "47", "59"}
	var samples []Sample
	for len(samples) < n {
		dt := dts[rng.Intn(len(dts))]
		typ := rng.Intn(3) + 1
		sql := `select t1.user_id, count(*) as cnt
		 from ( select user_id, memo from user_memo where dt='` + dt + `' and memo_type = 'pen' ) t1
		 inner join ( select user_id, action from user_action where type = ` + itoa(typ) + ` and dt='` + dt + `' ) t2
		 on t1.user_id = t2.user_id group by t1.user_id`
		q, err := plan.Parse(sql, cat)
		if err != nil {
			t.Fatal(err)
		}
		subs := plan.ExtractSubqueries(q)
		v := subs[rng.Intn(len(subs))].Root
		f := featenc.Extract(q, v, cat)
		// A deterministic pseudo-cost: longer views save more; the dt
		// constant shifts cost so string encoding matters.
		y := 10.0 - 2.0*float64(len(f.ViewPlan)) + float64(dt[0]-'0')*0.7 + 0.3*float64(typ)
		samples = append(samples, Sample{F: f, Y: y})
	}
	return samples
}

func itoa(i int) string { return string(rune('0' + i)) }

func TestModelGradients(t *testing.T) {
	cat := testCatalog(t)
	vocab := featenc.NewVocab(cat, []string{"cnt"})
	rng := rand.New(rand.NewSource(1))
	m := New(vocab, Config{
		Encoder:    featenc.Config{EmbedDim: 3, Hidden: 3},
		WideDim:    3,
		DeepHidden: 4,
		RegHidden:  3,
	}, rng)
	samples := syntheticSamples(t, cat, 1)
	numerics := [][]float64{samples[0].F.Numeric}
	m.Norm = featenc.FitNormalizer(numerics)

	f := samples[0].F
	loss := func() float64 {
		y, _ := m.forward(f)
		return y * y
	}
	nn.ZeroGrads(m.Params())
	y, back := m.forward(f)
	back(2 * y)
	const eps = 1e-6
	checked := 0
	for _, p := range m.Params() {
		for i := range p.Val {
			orig := p.Val[i]
			p.Val[i] = orig + eps
			lp := loss()
			p.Val[i] = orig - eps
			lm := loss()
			p.Val[i] = orig
			want := (lp - lm) / (2 * eps)
			if math.Abs(p.Grad[i]-want) > 1e-4*(1+math.Abs(want)) {
				t.Errorf("%s grad[%d] = %g, want %g", p, i, p.Grad[i], want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no parameters checked")
	}
}

func TestFitReducesLoss(t *testing.T) {
	cat := testCatalog(t)
	vocab := featenc.NewVocab(cat, []string{"cnt"})
	rng := rand.New(rand.NewSource(2))
	m := New(vocab, Config{Encoder: featenc.Config{EmbedDim: 8, Hidden: 8}}, rng)
	samples := syntheticSamples(t, cat, 48)
	losses, err := m.Fit(samples, TrainConfig{Epochs: 12, LearnRate: 0.01, BatchSize: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(losses) != 12 {
		t.Fatalf("want 12 epoch losses, got %d", len(losses))
	}
	if losses[len(losses)-1] >= losses[0]*0.8 {
		t.Errorf("training did not reduce loss: first %v, last %v", losses[0], losses[len(losses)-1])
	}
	// Predictions should be in the right ballpark after training.
	var mae float64
	for _, s := range samples {
		mae += math.Abs(m.Predict(s.F) - s.Y)
	}
	mae /= float64(len(samples))
	if mae > 2.0 {
		t.Errorf("train MAE = %v, want < 2.0", mae)
	}
}

// TestFitParallelismDeterminism trains every encoder variant from one
// seed at Parallelism 1, 2, 3 and 8 — four epochs of two full batches and a
// short one: weights and loss traces must be bit-for-bit identical, and
// so the predictions. Each of the three passes of a batch gradient fixes
// its summation order by index (operators in first-appearance order,
// pairs and operator folds in index order from zeroed per-worker
// buffers), so worker count never changes the arithmetic.
func TestFitParallelismDeterminism(t *testing.T) {
	cat := testCatalog(t)
	vocab := featenc.NewVocab(cat, []string{"cnt"})
	samples := syntheticSamples(t, cat, 21)

	for name, enc := range Variants() {
		enc.EmbedDim, enc.Hidden = 4, 4
		fit := func(par int) (*Model, []float64) {
			m := New(vocab, Config{Encoder: enc}, rand.New(rand.NewSource(31)))
			losses, err := m.Fit(samples, TrainConfig{Epochs: 4, BatchSize: 8, Seed: 5, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			return m, losses
		}
		m1, l1 := fit(1)
		for _, par := range []int{2, 3, 8} {
			mp, lp := fit(par)
			for i := range l1 {
				if math.Float64bits(l1[i]) != math.Float64bits(lp[i]) {
					t.Fatalf("%s epoch %d loss: serial %.17g, P=%d %.17g", name, i, l1[i], par, lp[i])
				}
			}
			p1, pp := m1.Params(), mp.Params()
			for i := range p1 {
				for j := range p1[i].Val {
					if math.Float64bits(p1[i].Val[j]) != math.Float64bits(pp[i].Val[j]) {
						t.Fatalf("%s %s weight[%d]: serial %.17g, P=%d %.17g", name, p1[i], j, p1[i].Val[j], par, pp[i].Val[j])
					}
				}
			}
			for _, s := range samples {
				if m1.Predict(s.F) != mp.Predict(s.F) {
					t.Fatalf("%s: predictions diverge between Parallelism 1 and %d", name, par)
				}
			}
		}
	}
}

// TestFitGoldenBits pins what TestFitParallelismDeterminism cannot: a
// change that moved every weight the same way at every Parallelism
// would pass that test. Each encoder variant is trained in five
// configurations, and an FNV-64a hash of its loss trace and every
// fitted weight (parameter names included) must equal the hash pinned
// for it at Parallelism 1, 2, 3 and 8. "synthetic" is that test's
// configuration, pinned when the three-pass batch gradient still ran
// each operator's forward twice; "wk1" — 29 seeded WK1 pairs, plans of
// up to 12 operators, and one pair without a view plan, in batches of 13
// (13, 13, 4: no batch a whole number of 8-lane blocks) at odd layer
// widths, "wk1-serving", the same at the served model's widths, and
// "wk1-wide" and "wk1-deep", the odd widths under the WideOnly and
// DeepOnly heads — were pinned on the per-pair pass B and token-passed
// pass C folds before the batched passes replaced them.
func TestFitGoldenBits(t *testing.T) {
	golden := map[string]string{
		"W-D/synthetic":     "fb6b0dad5415d1e9",
		"N-Kw/synthetic":    "c49e1f1005504fbd",
		"N-Str/synthetic":   "4dd42fd03458226e",
		"N-Exp/synthetic":   "f20e86eb89c853f1",
		"W-D/wk1":           "c1a6a3f31b97fc7f",
		"N-Kw/wk1":          "149fb54d954ce4b7",
		"N-Str/wk1":         "26948d6e6306421a",
		"N-Exp/wk1":         "08c93b76524b18bc",
		"W-D/wk1-serving":   "21414e4839a1a108",
		"N-Kw/wk1-serving":  "5820d9fb7f02603f",
		"N-Str/wk1-serving": "5e54695bdbef8cae",
		"N-Exp/wk1-serving": "2857a663f1470f42",
		"W-D/wk1-wide":      "9dc17bccb9401088",
		"N-Kw/wk1-wide":     "c4847e95a3158d9c",
		"N-Str/wk1-wide":    "4280fb9a23d1046e",
		"N-Exp/wk1-wide":    "c56c1425226f89d6",
		"W-D/wk1-deep":      "12515cafbcbb74e1",
		"N-Kw/wk1-deep":     "b3533075ce0d8e39",
		"N-Str/wk1-deep":    "da0e038f0f633e50",
		"N-Exp/wk1-deep":    "bc00c96a8017d4b9",
	}
	cat := testCatalog(t)
	synthetic := syntheticSamples(t, cat, 21)
	wk1Samples := trainingSamples(3, 29)
	wk1Samples = append(wk1Samples, wk1Samples[0])
	wk1Samples[len(wk1Samples)-1].F.ViewPlan = nil
	w := wk1()
	wideOnly, deepOnly := oddShapes, oddShapes
	wideOnly.WideOnly, deepOnly.DeepOnly = true, true
	for _, c := range []struct {
		name    string
		vocab   *featenc.Vocab
		samples []Sample
		cfg     Config
		train   TrainConfig
	}{
		{"synthetic", featenc.NewVocab(cat, []string{"cnt"}), synthetic,
			Config{Encoder: featenc.Config{EmbedDim: 4, Hidden: 4}},
			TrainConfig{Epochs: 4, BatchSize: 8, Seed: 5}},
		{"wk1", featenc.NewVocab(w.Cat, featenc.CollectPlanKeywords(w.Plans())), wk1Samples,
			oddShapes, TrainConfig{Epochs: 3, BatchSize: 13, Seed: 7}},
		{"wk1-serving", featenc.NewVocab(w.Cat, featenc.CollectPlanKeywords(w.Plans())), wk1Samples,
			servingShapes, TrainConfig{Epochs: 3, BatchSize: 13, Seed: 7}},
		{"wk1-wide", featenc.NewVocab(w.Cat, featenc.CollectPlanKeywords(w.Plans())), wk1Samples,
			wideOnly, TrainConfig{Epochs: 3, BatchSize: 13, Seed: 7}},
		{"wk1-deep", featenc.NewVocab(w.Cat, featenc.CollectPlanKeywords(w.Plans())), wk1Samples,
			deepOnly, TrainConfig{Epochs: 3, BatchSize: 13, Seed: 7}},
	} {
		for name, enc := range Variants() {
			cfg := c.cfg
			enc.EmbedDim, enc.Hidden = cfg.Encoder.EmbedDim, cfg.Encoder.Hidden
			cfg.Encoder = enc
			key := name + "/" + c.name
			for _, par := range []int{1, 2, 3, 8} {
				m := New(c.vocab, cfg, rand.New(rand.NewSource(31)))
				train := c.train
				train.Parallelism = par
				losses, err := m.Fit(c.samples, train)
				if err != nil {
					t.Fatal(err)
				}
				if got := fitHash(m, losses); got != golden[key] {
					t.Errorf("%s P=%d: fit hash %s, want %s", key, par, got, golden[key])
				}
			}
		}
	}
}

// fitHash is an FNV-64a hash of a fit's loss trace and of every fitted
// weight, parameter names included.
func fitHash(m *Model, losses []float64) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, l := range losses {
		put(l)
	}
	for _, p := range m.Params() {
		h.Write([]byte(p.Name))
		for _, v := range p.Val {
			put(v)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestFitEmptyErrors(t *testing.T) {
	cat := testCatalog(t)
	vocab := featenc.NewVocab(cat, nil)
	m := New(vocab, Config{}, rand.New(rand.NewSource(1)))
	if _, err := m.Fit(nil, TrainConfig{}); err == nil {
		t.Error("Fit on empty data should error")
	}
}

func TestVariantsBuildAndPredict(t *testing.T) {
	cat := testCatalog(t)
	vocab := featenc.NewVocab(cat, []string{"cnt"})
	samples := syntheticSamples(t, cat, 8)
	for name, encCfg := range Variants() {
		rng := rand.New(rand.NewSource(4))
		m := New(vocab, Config{Encoder: featenc.Config{
			EmbedDim:      4,
			Hidden:        4,
			KeywordOneHot: encCfg.KeywordOneHot,
			StringOneHot:  encCfg.StringOneHot,
			NoSequence:    encCfg.NoSequence,
		}}, rng)
		if _, err := m.Fit(samples, TrainConfig{Epochs: 2, BatchSize: 4}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		y := m.Predict(samples[0].F)
		if math.IsNaN(y) || math.IsInf(y, 0) {
			t.Errorf("%s: prediction is %v", name, y)
		}
	}
}

func TestVariantName(t *testing.T) {
	for want, cfg := range Variants() {
		if got := VariantName(cfg); got != want {
			t.Errorf("VariantName(%+v) = %q, want %q", cfg, got, want)
		}
	}
}

func TestPredictDeterministic(t *testing.T) {
	cat := testCatalog(t)
	vocab := featenc.NewVocab(cat, []string{"cnt"})
	m := New(vocab, Config{Encoder: featenc.Config{EmbedDim: 4, Hidden: 4}}, rand.New(rand.NewSource(5)))
	samples := syntheticSamples(t, cat, 4)
	if _, err := m.Fit(samples, TrainConfig{Epochs: 1, BatchSize: 2}); err != nil {
		t.Fatal(err)
	}
	a := m.Predict(samples[0].F)
	b := m.Predict(samples[0].F)
	if a != b {
		t.Error("Predict is not deterministic")
	}
}

func TestTargetStandardizationRestoresScale(t *testing.T) {
	cat := testCatalog(t)
	vocab := featenc.NewVocab(cat, []string{"cnt"})
	m := New(vocab, Config{Encoder: featenc.Config{EmbedDim: 4, Hidden: 4}}, rand.New(rand.NewSource(6)))
	samples := syntheticSamples(t, cat, 16)
	// Scale targets up: predictions must come back at that scale.
	for i := range samples {
		samples[i].Y *= 1000
	}
	if _, err := m.Fit(samples, TrainConfig{Epochs: 10, BatchSize: 8, LearnRate: 0.01}); err != nil {
		t.Fatal(err)
	}
	var mean float64
	for _, s := range samples {
		mean += m.Predict(s.F)
	}
	mean /= float64(len(samples))
	if mean < 1000 {
		t.Errorf("predictions not restored to target scale: mean %v", mean)
	}
}
