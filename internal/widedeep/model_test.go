package widedeep

import (
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
// seed at Parallelism 1, 2 and 8 — four epochs of two full batches and a
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
		for _, par := range []int{2, 8} {
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
