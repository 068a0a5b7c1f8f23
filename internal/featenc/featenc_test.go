package featenc

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"autoview/internal/catalog"
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

const exampleSQL = `select t1.user_id, count(*) as cnt
from ( select user_id, memo from user_memo where dt='1010' and memo_type = 'pen' ) t1
inner join ( select user_id, action from user_action where type = 1 and dt='1010' ) t2
on t1.user_id = t2.user_id group by t1.user_id`

func examplePlans(t *testing.T, cat *catalog.Catalog) (*plan.Node, *plan.Node) {
	t.Helper()
	q, err := plan.Parse(exampleSQL, cat)
	if err != nil {
		t.Fatal(err)
	}
	subs := plan.ExtractSubqueries(q)
	return q, subs[0].Root
}

func TestVocab(t *testing.T) {
	cat := testCatalog(t)
	v := NewVocab(cat, []string{"cnt"})
	if v.ID("<unk>") != 0 {
		t.Error("unknown must map to 0")
	}
	for _, w := range []string{"Scan", "Filter", "EQ", "user_memo", "user_id", "Int", "cnt"} {
		if v.ID(w) == 0 {
			t.Errorf("vocabulary missing %q", w)
		}
	}
	if v.ID("never-seen") != 0 {
		t.Error("unseen keyword should map to 0")
	}
	if v.Words()[v.ID("Scan")] != "Scan" {
		t.Error("Words/ID not inverse")
	}
}

func TestCollectPlanKeywords(t *testing.T) {
	cat := testCatalog(t)
	q, _ := examplePlans(t, cat)
	kws := CollectPlanKeywords([]*plan.Node{q})
	want := map[string]bool{"Aggregate": true, "cnt": true, "COUNT": true, "user_id": true}
	for w := range want {
		found := false
		for _, k := range kws {
			if k == w {
				found = true
			}
		}
		if !found {
			t.Errorf("CollectPlanKeywords missing %q", w)
		}
	}
	// Literals must not appear.
	for _, k := range kws {
		if k == "'1010'" || k == "'pen'" {
			t.Errorf("literal %q leaked into keywords", k)
		}
	}
}

func TestExtractFeatures(t *testing.T) {
	cat := testCatalog(t)
	q, v := examplePlans(t, cat)
	f := Extract(q, v, cat)
	if len(f.Numeric) != NumericDim {
		t.Fatalf("numeric dim %d, want %d", len(f.Numeric), NumericDim)
	}
	if f.Numeric[0] != 2 { // both tables associated
		t.Errorf("numTables = %v, want 2", f.Numeric[0])
	}
	if f.Numeric[1] != 8 {
		t.Errorf("numCols = %v, want 8", f.Numeric[1])
	}
	if math.Abs(f.Numeric[2]-math.Log1p(1000)) > 1e-9 {
		t.Errorf("log rows = %v", f.Numeric[2])
	}
	if len(f.QueryPlan) != 8 {
		t.Errorf("query plan ops = %d, want 8", len(f.QueryPlan))
	}
	if len(f.ViewPlan) >= len(f.QueryPlan) {
		t.Error("view plan should be shorter than query plan")
	}
	if len(f.Schema) != 18 { // 2 tables × (1 name + 4 cols + 4 types)
		t.Errorf("schema keywords = %d, want 18", len(f.Schema))
	}
}

func TestNormalizer(t *testing.T) {
	rows := [][]float64{{1, 10}, {3, 10}, {5, 10}}
	n := FitNormalizer(rows)
	out := n.Apply([]float64{3, 10})
	if math.Abs(out[0]) > 1e-9 {
		t.Errorf("mean-centered value = %v, want 0", out[0])
	}
	// Zero-variance dimension normalizes to 0, not NaN.
	if out[1] != 0 || math.IsNaN(out[1]) {
		t.Errorf("constant dimension = %v, want 0", out[1])
	}
	sum := 0.0
	for _, r := range rows {
		v := n.Apply(r)[0]
		sum += v * v
	}
	if math.Abs(sum/3-1) > 1e-9 {
		t.Errorf("unit variance violated: %v", sum/3)
	}
	empty := FitNormalizer(nil)
	if len(empty.Mean) != NumericDim {
		t.Error("empty normalizer should default to NumericDim")
	}
}

func TestEncoderDims(t *testing.T) {
	cat := testCatalog(t)
	vocab := NewVocab(cat, nil)
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name string
		cfg  Config
	}{
		{"wd", Config{}},
		{"nkw", Config{KeywordOneHot: true}},
		{"nstr", Config{StringOneHot: true}},
		{"nexp", Config{NoSequence: true}},
	}
	q, v := examplePlans(t, cat)
	f := Extract(q, v, cat)
	for _, c := range cases {
		e := NewEncoder(vocab, c.cfg, rng)
		dm, _ := e.EncodeSchema(f.Schema, nil)
		if len(dm) != e.SchemaDim() {
			t.Errorf("%s: schema dim %d != %d", c.name, len(dm), e.SchemaDim())
		}
		de, _ := e.EncodePlan(f.QueryPlan, nil)
		if len(de) != e.PlanDim() {
			t.Errorf("%s: plan dim %d != %d", c.name, len(de), e.PlanDim())
		}
		tok, _ := e.EncodeToken(plan.Tok{Text: "Scan"}, nil)
		if len(tok) != e.tokDim {
			t.Errorf("%s: token dim %d != %d", c.name, len(tok), e.tokDim)
		}
		stok, _ := e.EncodeToken(plan.Tok{Text: "'1010'", Str: true}, nil)
		if len(stok) != e.tokDim {
			t.Errorf("%s: string token dim %d != %d", c.name, len(stok), e.tokDim)
		}
	}
}

func TestStringEncoderGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	se := NewStringEncoder(4, rng)
	loss := func() float64 {
		y, _ := se.Encode("abc", nil)
		var l float64
		for i, v := range y {
			l += v * float64(i+1)
		}
		return l
	}
	nn.ZeroGrads(se.Params())
	y, back := se.Encode("abc", nil)
	dy := make(nn.Vec, len(y))
	for i := range dy {
		dy[i] = float64(i + 1)
	}
	back(dy)
	const eps = 1e-6
	for _, p := range se.Params() {
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
		}
	}
}

func TestStringEncoderEmptyAndNonASCII(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	se := NewStringEncoder(4, rng)
	y, back := se.Encode("", nil)
	for _, v := range y {
		if v != 0 {
			t.Fatal("empty string should encode to zeros")
		}
	}
	back(make(nn.Vec, 4)) // must not panic
	if y2, _ := se.Encode("\xffhü", nil); len(y2) != 4 {
		t.Fatal("non-ASCII bytes should clamp, not panic")
	}
}

func TestEncodePlanGradientsFlowToEmbeddings(t *testing.T) {
	cat := testCatalog(t)
	vocab := NewVocab(cat, nil)
	rng := rand.New(rand.NewSource(4))
	e := NewEncoder(vocab, Config{EmbedDim: 4, Hidden: 4}, rng)
	q, v := examplePlans(t, cat)
	f := Extract(q, v, cat)

	nn.ZeroGrads(e.Params())
	de, back := e.EncodePlan(f.QueryPlan, nil)
	dy := make(nn.Vec, len(de))
	for i := range dy {
		dy[i] = 1
	}
	back(dy)
	var kwGrad float64
	for _, g := range e.KwEmb.W.Grad {
		kwGrad += math.Abs(g)
	}
	if kwGrad == 0 {
		t.Error("no gradient reached keyword embeddings")
	}
	var strGrad float64
	for _, p := range e.Str.Params() {
		for _, g := range p.Grad {
			strGrad += math.Abs(g)
		}
	}
	if strGrad == 0 {
		t.Error("no gradient reached the string encoder")
	}
}

func TestEncodeDeterministic(t *testing.T) {
	cat := testCatalog(t)
	vocab := NewVocab(cat, nil)
	rng := rand.New(rand.NewSource(5))
	e := NewEncoder(vocab, Config{}, rng)
	q, v := examplePlans(t, cat)
	f := Extract(q, v, cat)
	a, _ := e.EncodePlan(f.QueryPlan, nil)
	b, _ := e.EncodePlan(f.QueryPlan, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("encoding is not deterministic")
		}
	}
}

func TestVocabWordsRoundTrip(t *testing.T) {
	cat := testCatalog(t)
	v := NewVocab(cat, []string{"extra"})
	words := v.Words()
	v2 := NewVocabFromWords(words)
	if v2.Size() != v.Size() {
		t.Fatalf("sizes differ: %d vs %d", v2.Size(), v.Size())
	}
	for _, w := range []string{"Scan", "user_memo", "extra", "<unk>"} {
		if v2.ID(w) != v.ID(w) {
			t.Errorf("id of %q differs after round trip", w)
		}
	}
}

func TestVocabFromWordsRequiresUnk(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("word list without <unk> should panic")
		}
	}()
	NewVocabFromWords([]string{"a", "b"})
}

// TestExtractPreParity pins the precompute split: ExtractPre over
// TestBatchExtractorMatchesExtractPre pins the one extraction loop from
// both ends. Precompute must yield sorted deduplicated tables. A reused
// extractor must return exactly what Extract (a fresh extractor per
// call) returns for every pairing, across Reset cycles (warm backing
// arrays and a warm table memo must not change results), with earlier
// pairs' slices intact while later pairs of the same batch are
// extracted, without mutating the shared PlanFeats, and with a missing
// table or a rebound catalog handled like a fresh extractor would.
//
// Features are compared field by field — the *PlanFeat pair by what it
// points to, never by address (Extract precomputes its own) and never
// through the memo slot.
func TestBatchExtractorMatchesExtractPre(t *testing.T) {
	sameDerived := func(a, b Features) bool {
		return reflect.DeepEqual(a.QueryPlan, b.QueryPlan) && reflect.DeepEqual(a.ViewPlan, b.ViewPlan) &&
			reflect.DeepEqual(a.Schema, b.Schema) && reflect.DeepEqual(a.Numeric, b.Numeric)
	}
	samePlanFeat := func(a, b *PlanFeat) bool {
		return reflect.DeepEqual(a.Ser, b.Ser) && reflect.DeepEqual(a.Tables, b.Tables) && a.Count == b.Count
	}
	same := func(a, b Features) bool {
		return sameDerived(a, b) && samePlanFeat(a.QueryFeat, b.QueryFeat) && samePlanFeat(a.ViewFeat, b.ViewFeat)
	}

	cat := testCatalog(t)
	q, v := examplePlans(t, cat)
	pq, pv := Precompute(q), Precompute(v)
	for _, pf := range []*PlanFeat{pq, pv} {
		if !sort.StringsAreSorted(pf.Tables) {
			t.Fatalf("Precompute tables not sorted: %v", pf.Tables)
		}
		for i := 1; i < len(pf.Tables); i++ {
			if pf.Tables[i] == pf.Tables[i-1] {
				t.Fatalf("duplicate table %q survived Precompute", pf.Tables[i])
			}
		}
	}
	tablesBefore := append([]string(nil), pq.Tables...)
	ex := NewBatchExtractor(cat)

	plans := [][2]*plan.Node{{q, v}, {v, q}, {q, q}, {v, v}}
	pairs := [][2]*PlanFeat{{pq, pv}, {pv, pq}, {pq, pq}, {pv, pv}}
	want := make([]Features, len(pairs))
	for i, p := range plans {
		want[i] = Extract(p[0], p[1], cat)
	}
	// Asymmetric pairing: the q/v halves must not be interchangeable by
	// accident (Count and plan-length features are signed).
	if reflect.DeepEqual(want[0].Numeric, want[1].Numeric) {
		t.Fatal("flipped pairing produced identical numeric features")
	}
	for round := 0; round < 3; round++ {
		ex.Reset(cat)
		got := make([]Features, len(pairs))
		for i, p := range pairs {
			got[i] = ex.ExtractPre(p[0], p[1])
		}
		// Compare only after the whole batch is out: this doubles as the
		// aliasing check that pair i's carved-out slices survive the
		// appends for pairs i+1..n.
		for i, p := range pairs {
			if !same(got[i], want[i]) {
				t.Fatalf("round %d pair %d: reused extractor diverges from Extract:\n got %+v\nwant %+v", round, i, got[i], want[i])
			}
			if got[i].QueryFeat != p[0] || got[i].ViewFeat != p[1] {
				t.Fatalf("round %d pair %d: ExtractPre did not hand its PlanFeat pair through", round, i)
			}
		}
	}
	if !reflect.DeepEqual(tablesBefore, pq.Tables) {
		t.Fatalf("ExtractPre mutated PlanFeat tables: %v -> %v", tablesBefore, pq.Tables)
	}

	// A plan referencing an unknown table must degrade to the features
	// of its known tables alone (the two PlanFeats differ by design).
	ghost := &PlanFeat{Tables: []string{"no_such_table", "user_memo"}, Ser: pq.Ser, Count: pq.Count}
	known := &PlanFeat{Tables: []string{"user_memo"}, Ser: pq.Ser, Count: pq.Count}
	ex.Reset(cat)
	if got, want := ex.ExtractPre(ghost, pv), ex.ExtractPre(known, pv); !sameDerived(got, want) {
		t.Fatalf("unknown-table pair diverges:\n got %+v\nwant %+v", got, want)
	}

	// Rebinding to a different catalog must drop the memo: extract under
	// a second catalog with different stats and check against Extract
	// bound to that catalog.
	cat2 := testCatalog(t)
	tb, _ := cat2.Table("user_memo")
	tb.Stats.Rows *= 7
	ex.Reset(cat2)
	got, want2 := ex.ExtractPre(pq, pv), Extract(q, v, cat2)
	if !same(got, want2) {
		t.Fatalf("post-rebind extraction diverges:\n got %+v\nwant %+v", got, want2)
	}
	if reflect.DeepEqual(got.Numeric, want[0].Numeric) {
		t.Fatal("rebound extractor served the old catalog's statistics")
	}
}

// TestEncoder32MatchesEncode holds the f32 serving mirror — its LSTM
// products, gates and string CNN on internal/nn's f32 kernels, packed
// or portable as the build and CPU choose — to the f64 tape encoder
// within a fixed envelope, on the example query and view: plan codes at
// the default width (whole kernel blocks) and at 13 (every partial
// block and the Go tail), and the schema code.
func TestEncoder32MatchesEncode(t *testing.T) {
	cat := testCatalog(t)
	vocab := NewVocab(cat, nil)
	q, v := examplePlans(t, cat)
	f := Extract(q, v, cat)
	for _, cfg := range []Config{{}, {EmbedDim: 12, Hidden: 13}} {
		e := NewEncoder(vocab, cfg, rand.New(rand.NewSource(9)))
		m := NewEncoder32(e)
		check := func(what string, got nn.Vec32, want nn.Vec) {
			if len(got) != len(want) {
				t.Fatalf("%+v %s: f32 width %d, f64 width %d", cfg, what, len(got), len(want))
			}
			for i := range want {
				if !nn.AlmostEqual(float64(got[i]), want[i], 1e-4, 1e-5) {
					t.Fatalf("%+v %s[%d]: f32 %v, f64 %v", cfg, what, i, got[i], want[i])
				}
			}
		}
		for _, p := range [][][]plan.Tok{f.QueryPlan, f.ViewPlan} {
			want, _ := e.EncodePlan(p, nil)
			check("plan", m.InferPlan(p, nn.NewArena()), want)
		}
		want, _ := e.EncodeSchema(f.Schema, nil)
		check("schema", m.InferSchema(f.Schema, nn.NewArena()), want)
	}
}
