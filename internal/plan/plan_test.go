package plan

import (
	"strings"
	"testing"

	"autoview/internal/catalog"
)

// paperCatalog builds the two-table schema of the paper's Figure 2 example.
func paperCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	tables := []*catalog.Table{
		{
			Name: "user_memo",
			Columns: []catalog.Column{
				{Name: "user_id", Type: catalog.TypeInt, Distinct: 100},
				{Name: "memo", Type: catalog.TypeString, Distinct: 50},
				{Name: "memo_type", Type: catalog.TypeString, Distinct: 5},
				{Name: "dt", Type: catalog.TypeString, Distinct: 10},
			},
			Stats: catalog.TableStats{Rows: 1000},
		},
		{
			Name: "user_action",
			Columns: []catalog.Column{
				{Name: "user_id", Type: catalog.TypeInt, Distinct: 100},
				{Name: "action", Type: catalog.TypeString, Distinct: 20},
				{Name: "type", Type: catalog.TypeInt, Distinct: 4},
				{Name: "dt", Type: catalog.TypeString, Distinct: 10},
			},
			Stats: catalog.TableStats{Rows: 2000},
		},
	}
	for _, tb := range tables {
		if err := cat.Add(tb); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

const paperSQL = `
select t1.user_id, count(*) as cnt
from ( select user_id, memo from user_memo where dt='1010' and memo_type = 'pen' ) t1
inner join ( select user_id, action from user_action where type = 1 and dt='1010' ) t2
on t1.user_id = t2.user_id
group by t1.user_id`

func buildPaperPlan(t *testing.T) *Node {
	t.Helper()
	n, err := Parse(paperSQL, paperCatalog(t))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return n
}

func TestBuildPaperExampleShape(t *testing.T) {
	root := buildPaperPlan(t)
	// Expected tree: Aggregate -> Join -> (Project -> Filter -> Scan) x2.
	if root.Op != OpAggregate {
		t.Fatalf("root is %v, want Aggregate", root.Op)
	}
	join := root.Child(0)
	if join.Op != OpJoin || join.JoinType != InnerJoin {
		t.Fatalf("child is %v/%v, want inner Join", join.Op, join.JoinType)
	}
	for side := 0; side < 2; side++ {
		p := join.Child(side)
		if p.Op != OpProject {
			t.Fatalf("join child %d is %v, want Project", side, p.Op)
		}
		f := p.Child(0)
		if f.Op != OpFilter {
			t.Fatalf("under project %d is %v, want Filter", side, f.Op)
		}
		s := f.Child(0)
		if s.Op != OpScan {
			t.Fatalf("leaf %d is %v, want Scan", side, s.Op)
		}
	}
	if got := root.Count(); got != 8 {
		t.Errorf("operator count = %d, want 8", got)
	}
	tables := root.Tables()
	if len(tables) != 2 || tables[0] != "user_memo" || tables[1] != "user_action" {
		t.Errorf("tables = %v", tables)
	}
	// Output schema: user_id then cnt.
	if len(root.Schema) != 2 || root.Schema[0].Name != "user_id" || root.Schema[1].Name != "cnt" {
		t.Errorf("schema = %v", root.Schema)
	}
	if root.Schema[1].Type != catalog.TypeInt {
		t.Errorf("count output type = %v, want Int", root.Schema[1].Type)
	}
}

func TestSerializePaperExample(t *testing.T) {
	root := buildPaperPlan(t)
	seqs := Serialize(root)
	if len(seqs) != 8 {
		t.Fatalf("want 8 operator sequences, got %d", len(seqs))
	}
	// Pre-order: Aggregate, Join, Project, Filter, Scan, Project, Filter, Scan.
	wantOps := []string{"Aggregate", "Join", "Project", "Filter", "Scan", "Project", "Filter", "Scan"}
	for i, s := range seqs {
		if s[0].Text != wantOps[i] {
			t.Errorf("seq %d starts with %q, want %q", i, s[0].Text, wantOps[i])
		}
	}
	// Filter D of the paper: [Filter, AND, EQ, dt, '1010', EQ, memo_type, 'pen'].
	d := seqs[3]
	want := []string{"Filter", "AND", "EQ", "dt", "'1010'", "EQ", "memo_type", "'pen'"}
	if len(d) != len(want) {
		t.Fatalf("filter seq = %v, want %v", d.Texts(), want)
	}
	for i := range want {
		if d[i].Text != want[i] {
			t.Errorf("filter token %d = %q, want %q", i, d[i].Text, want[i])
		}
	}
	// Literal tokens must be flagged as strings; keywords must not.
	if !d[4].Str || !d[7].Str {
		t.Error("literal tokens should be Str")
	}
	if d[0].Str || d[2].Str || d[3].Str {
		t.Error("keyword tokens should not be Str")
	}
	// Scan E of the paper: [Scan, user_memo].
	if got := seqs[4].String(); got != "[Scan, user_memo]" {
		t.Errorf("scan seq = %s", got)
	}
}

func TestExtractSubqueriesPaperExample(t *testing.T) {
	root := buildPaperPlan(t)
	subs := ExtractSubqueries(root)
	// Proper subplans rooted at Join/Project: s3 (join), s1, s2 (projects).
	if len(subs) != 3 {
		t.Fatalf("want 3 subqueries, got %d", len(subs))
	}
	ops := map[OpType]int{}
	for _, s := range subs {
		ops[s.Root.Op]++
	}
	if ops[OpJoin] != 1 || ops[OpProject] != 2 {
		t.Errorf("subquery ops = %v, want 1 Join + 2 Projects", ops)
	}
	// The join subquery (s3) must overlap both projects (s1, s2) per Def. 5.
	var join, p1, p2 *Node
	for _, s := range subs {
		switch {
		case s.Root.Op == OpJoin:
			join = s.Root
		case p1 == nil:
			p1 = s.Root
		default:
			p2 = s.Root
		}
	}
	if !Overlapping(join, p1) || !Overlapping(join, p2) {
		t.Error("s3 should overlap s1 and s2")
	}
	if Overlapping(p1, p2) {
		t.Error("s1 and s2 scan different tables and should not overlap")
	}
}

func TestFingerprintInvariances(t *testing.T) {
	cat := paperCatalog(t)
	mustPlan := func(sql string) *Node {
		n, err := Parse(sql, cat)
		if err != nil {
			t.Fatalf("Parse(%q): %v", sql, err)
		}
		return n
	}
	// Conjunct order must not matter.
	a := mustPlan("select user_id from user_memo where dt='1010' and memo_type='pen'")
	b := mustPlan("select user_id from user_memo where memo_type='pen' and dt='1010'")
	if FingerprintOf(a) != FingerprintOf(b) {
		t.Error("conjunct order changed fingerprint")
	}
	// Different constants must matter.
	c := mustPlan("select user_id from user_memo where dt='1011' and memo_type='pen'")
	if FingerprintOf(a) == FingerprintOf(c) {
		t.Error("different constant collided")
	}
	// Aliases must not matter.
	d := mustPlan("select x.user_id from (select user_id from user_memo where dt='1010' and memo_type='pen') x")
	e := mustPlan("select y.user_id from (select user_id from user_memo where dt='1010' and memo_type='pen') y")
	if FingerprintOf(d) != FingerprintOf(e) {
		t.Error("alias changed fingerprint")
	}
	// Inner join input order must not matter.
	j1 := mustPlan("select user_memo.memo from user_memo inner join user_action on user_memo.user_id = user_action.user_id")
	j2 := mustPlan("select user_memo.memo from user_action inner join user_memo on user_memo.user_id = user_action.user_id")
	if FingerprintOf(j1.Child(0)) != FingerprintOf(j2.Child(0)) {
		t.Error("inner-join commutation changed fingerprint")
	}
	// Projection order is significant by design.
	p1 := mustPlan("select user_id, memo from user_memo")
	p2 := mustPlan("select memo, user_id from user_memo")
	if FingerprintOf(p1) == FingerprintOf(p2) {
		t.Error("projection order should be significant")
	}
}

func TestFindOccurrences(t *testing.T) {
	root := buildPaperPlan(t)
	subs := ExtractSubqueries(root)
	for _, s := range subs {
		occ := FindOccurrences(root, s.Fingerprint)
		if len(occ) != 1 {
			t.Errorf("subquery %s: want 1 occurrence, got %d", s.Fingerprint.Short(), len(occ))
		}
		if len(occ) == 1 && occ[0] != s.Root {
			t.Error("occurrence should be the original node")
		}
	}
	if len(FindOccurrences(root, Fingerprint("nope"))) != 0 {
		t.Error("bogus fingerprint should not be found")
	}
}

func TestCloneIsDeep(t *testing.T) {
	root := buildPaperPlan(t)
	cp := root.Clone()
	if FingerprintOf(cp) != FingerprintOf(root) {
		t.Fatal("clone changed fingerprint")
	}
	// Mutating the clone must not affect the original.
	cp.Child(0).Children[0] = cp.Child(0).Children[1]
	if FingerprintOf(cp) == FingerprintOf(root) {
		t.Error("mutation of clone should change its fingerprint")
	}
	if root.Count() != 8 {
		t.Error("original was mutated through clone")
	}
}

func TestBuildErrors(t *testing.T) {
	cat := paperCatalog(t)
	cases := []struct {
		sql  string
		want string
	}{
		{"select user_id from missing", "unknown table"},
		{"select nope from user_memo", "unknown column"},
		{"select user_id from user_memo m inner join user_action a on m.user_id = a.user_id", "ambiguous"},
		{"select m.user_id from user_memo m inner join user_action a on m.user_id < a.user_id", "equalities"},
		{"select user_id, count(*) as c from user_memo", "not in GROUP BY"},
		{"select memo, sum(memo) as s from user_memo group by memo", "sum over string"},
		{"select count(*) as c from user_memo group by nope", "unknown column"},
	}
	for _, c := range cases {
		_, err := Parse(c.sql, cat)
		if err == nil {
			t.Errorf("Parse(%q): want error with %q, got nil", c.sql, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q): error %q missing %q", c.sql, err, c.want)
		}
	}
}

func TestPlanString(t *testing.T) {
	root := buildPaperPlan(t)
	s := root.String()
	for _, frag := range []string{
		"Aggregate(group=[{t1.user_id}], cnt=[COUNT(*)])",
		"Join(condition=[EQ(t1.user_id, t2.user_id)], joinType=[inner])",
		"Filter(condition=[AND(EQ(user_memo.dt, '1010'), EQ(user_memo.memo_type, 'pen'))])",
		"Scan(table=[user_memo])",
		"Scan(table=[user_action])",
	} {
		if !strings.Contains(s, frag) {
			t.Errorf("plan rendering missing %q:\n%s", frag, s)
		}
	}
}

func TestBuildHavingPlacesFilterAboveAggregate(t *testing.T) {
	cat := paperCatalog(t)
	root, err := Parse("select user_id, count(*) as cnt from user_memo group by user_id having cnt > 3", cat)
	if err != nil {
		t.Fatal(err)
	}
	if root.Op != OpFilter {
		t.Fatalf("root is %v, want Filter (HAVING)", root.Op)
	}
	if root.Child(0).Op != OpAggregate {
		t.Fatalf("under HAVING filter: %v, want Aggregate", root.Child(0).Op)
	}
	// The HAVING predicate references the aggregate alias.
	if got := PredString(root.Pred, root.Child(0).Schema); got != "GT(cnt, 3)" {
		t.Errorf("having predicate = %s", got)
	}
	// Unknown alias in HAVING fails to bind.
	if _, err := Parse("select user_id, count(*) as cnt from user_memo group by user_id having nope > 3", cat); err == nil {
		t.Error("unknown HAVING column should fail")
	}
}

func BenchmarkFingerprint(b *testing.B) {
	cat := catalog.New()
	tables := []*catalog.Table{
		{
			Name: "user_memo",
			Columns: []catalog.Column{
				{Name: "user_id", Type: catalog.TypeInt, Distinct: 100},
				{Name: "memo", Type: catalog.TypeString, Distinct: 50},
				{Name: "memo_type", Type: catalog.TypeString, Distinct: 5},
				{Name: "dt", Type: catalog.TypeString, Distinct: 10},
			},
			Stats: catalog.TableStats{Rows: 1000},
		},
		{
			Name: "user_action",
			Columns: []catalog.Column{
				{Name: "user_id", Type: catalog.TypeInt, Distinct: 100},
				{Name: "action", Type: catalog.TypeString, Distinct: 20},
				{Name: "type", Type: catalog.TypeInt, Distinct: 4},
				{Name: "dt", Type: catalog.TypeString, Distinct: 10},
			},
			Stats: catalog.TableStats{Rows: 2000},
		},
	}
	for _, tb := range tables {
		if err := cat.Add(tb); err != nil {
			b.Fatal(err)
		}
	}
	n, err := Parse(paperSQL, cat)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FingerprintOf(n)
	}
}

func BenchmarkNormalizedFingerprint(b *testing.B) {
	cat := catalog.New()
	err := cat.Add(&catalog.Table{
		Name: "user_memo",
		Columns: []catalog.Column{
			{Name: "user_id", Type: catalog.TypeInt, Distinct: 100},
			{Name: "memo", Type: catalog.TypeString, Distinct: 50},
			{Name: "memo_type", Type: catalog.TypeString, Distinct: 5},
			{Name: "dt", Type: catalog.TypeString, Distinct: 10},
		},
		Stats: catalog.TableStats{Rows: 1000},
	})
	if err != nil {
		b.Fatal(err)
	}
	n, err := Parse("select x.user_id from ( select user_id, dt from user_memo where memo_type='p' ) x where x.dt = '1'", cat)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NormalizedFingerprint(n)
	}
}
