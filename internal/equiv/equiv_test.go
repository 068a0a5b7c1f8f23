package equiv

import (
	"testing"

	"autoview/internal/catalog"
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
			Stats: catalog.TableStats{Rows: 400},
		},
		{
			Name: "user_action",
			Columns: []catalog.Column{
				{Name: "user_id", Type: catalog.TypeInt, Distinct: 40},
				{Name: "action", Type: catalog.TypeString, Distinct: 10},
				{Name: "type", Type: catalog.TypeInt, Distinct: 3},
				{Name: "dt", Type: catalog.TypeString, Distinct: 5},
			},
			Stats: catalog.TableStats{Rows: 600},
		},
	} {
		if err := cat.Add(tb); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func mustPlan(t *testing.T, cat *catalog.Catalog, sql string) *plan.Node {
	t.Helper()
	n, err := plan.Parse(sql, cat)
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	return n
}

// sameClass is the canonical-form test clusters are built on: two
// subqueries compute the same relation when their normalized
// fingerprints match.
func sameClass(a, b *plan.Node) bool {
	return plan.NormalizedFingerprint(a) == plan.NormalizedFingerprint(b)
}

func TestEquivalentDetectsNormalizedForms(t *testing.T) {
	cat := testCatalog(t)
	// Same predicate split differently across aliases and conjunct order.
	a := mustPlan(t, cat, "select x.user_id from (select user_id from user_memo where dt='1' and memo_type='p') x")
	b := mustPlan(t, cat, "select y.user_id from (select user_id from user_memo where memo_type='p' and dt='1') y")
	if !sameClass(a, b) {
		t.Error("conjunct order + alias should not break equivalence")
	}
	c := mustPlan(t, cat, "select x.user_id from (select user_id from user_memo where dt='2' and memo_type='p') x")
	if sameClass(a, c) {
		t.Error("different constants should not be equivalent")
	}
}

func TestEquivalentJoinCommutation(t *testing.T) {
	cat := testCatalog(t)
	a := mustPlan(t, cat, "select user_memo.memo from user_memo inner join user_action on user_memo.user_id = user_action.user_id")
	b := mustPlan(t, cat, "select user_memo.memo from user_action inner join user_memo on user_action.user_id = user_memo.user_id")
	if !sameClass(a.Child(0), b.Child(0)) {
		t.Error("inner-join commutation should be equivalent")
	}
}

func TestNormalizeCollapsesFilters(t *testing.T) {
	cat := testCatalog(t)
	// Nested derived table stacks a Project over a Filter over a Filter
	// after normalization of the outer where.
	a := mustPlan(t, cat, "select x.user_id from (select user_id, dt from user_memo where memo_type='p') x where x.dt = '1'")
	b := mustPlan(t, cat, "select user_id from user_memo where memo_type='p' and dt='1'")
	// a has Project(Filter(Project(Filter(Scan)))) — normalization cannot
	// flatten the projection sandwich in general (the inner project may
	// drop columns), so just assert normalization is stable and keeps
	// semantics markers.
	na := plan.Normalize(a)
	if plan.FingerprintOf(na) != plan.NormalizedFingerprint(a) {
		t.Error("Normalize/NormalizedFingerprint disagree")
	}
	_ = b
}

func workloadPlans(t *testing.T, cat *catalog.Catalog) []*plan.Node {
	t.Helper()
	sqls := []string{
		// q0 and q1 share subquery A = filtered user_memo projection.
		`select t1.user_id, count(*) as cnt
		 from ( select user_id, memo from user_memo where dt='1' and memo_type='p' ) t1
		 inner join ( select user_id, action from user_action where type = 1 and dt='1' ) t2
		 on t1.user_id = t2.user_id group by t1.user_id`,
		`select t1.user_id, count(*) as cnt
		 from ( select user_id, memo from user_memo where dt='1' and memo_type='p' ) t1
		 inner join ( select user_id, action from user_action where type = 2 and dt='1' ) t2
		 on t1.user_id = t2.user_id group by t1.user_id`,
		// q2 shares nothing.
		`select user_id from user_action where type = 3`,
	}
	out := make([]*plan.Node, len(sqls))
	for i, s := range sqls {
		out[i] = mustPlan(t, cat, s)
	}
	return out
}

func TestPreprocessSharedSubquery(t *testing.T) {
	cat := testCatalog(t)
	queries := workloadPlans(t, cat)
	res := Preprocess(queries, nil)

	if len(res.Subqueries) != 3 {
		t.Fatalf("Subqueries for %d queries", len(res.Subqueries))
	}
	// q0 and q1 have 3 subqueries each; q2 has none (plain project over
	// filter: Project root is the query root, excluded).
	if len(res.Subqueries[0]) != 3 || len(res.Subqueries[1]) != 3 {
		t.Errorf("subquery counts: %d, %d", len(res.Subqueries[0]), len(res.Subqueries[1]))
	}

	// Exactly one cluster is shared by two queries: the t1 projection.
	var shared []*Cluster
	for _, c := range res.Clusters {
		if c.SharedBy() >= 2 {
			shared = append(shared, c)
		}
	}
	if len(shared) != 1 {
		t.Fatalf("want 1 shared cluster, got %d", len(shared))
	}
	if got := shared[0].Pairs(); got != 1 {
		t.Errorf("shared cluster pairs = %d, want 1", got)
	}
	if res.EquivalentPairs != 1 {
		t.Errorf("EquivalentPairs = %d, want 1", res.EquivalentPairs)
	}

	// One candidate; shared by q0 and q1.
	if len(res.Candidates) != 1 {
		t.Fatalf("want 1 candidate, got %d", len(res.Candidates))
	}
	cand := res.Candidates[0]
	if len(cand.Queries) != 2 || cand.Queries[0] != 0 || cand.Queries[1] != 1 {
		t.Errorf("candidate queries = %v", cand.Queries)
	}
	if cand.Frequency != 2 {
		t.Errorf("candidate frequency = %d, want 2", cand.Frequency)
	}
	if got := res.AssociatedQueries; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("AssociatedQueries = %v", got)
	}
	// Single candidate: no overlapping pairs.
	if res.OverlappingPairs() != 0 {
		t.Errorf("OverlappingPairs = %d, want 0", res.OverlappingPairs())
	}
}

func TestPreprocessOverlapMatrix(t *testing.T) {
	cat := testCatalog(t)
	// Two queries sharing both a join subquery and its left input: the
	// join candidate overlaps the projection candidate.
	q := `select t1.user_id, count(*) as cnt
	 from ( select user_id, memo from user_memo where dt='1' and memo_type='p' ) t1
	 inner join ( select user_id, action from user_action where type = 1 and dt='1' ) t2
	 on t1.user_id = t2.user_id group by t1.user_id`
	queries := []*plan.Node{mustPlan(t, cat, q), mustPlan(t, cat, q)}
	res := Preprocess(queries, nil)
	// All three subqueries are shared by both queries -> 3 candidates.
	if len(res.Candidates) != 3 {
		t.Fatalf("want 3 candidates, got %d", len(res.Candidates))
	}
	// The join candidate overlaps both projections; projections don't
	// overlap each other: exactly 2 overlapping pairs.
	if got := res.OverlappingPairs(); got != 2 {
		t.Errorf("OverlappingPairs = %d, want 2", got)
	}
	// Overlap matrix must be symmetric with a false diagonal.
	for j := range res.Overlap {
		if res.Overlap[j][j] {
			t.Errorf("Overlap[%d][%d] should be false", j, j)
		}
		for k := range res.Overlap[j] {
			if res.Overlap[j][k] != res.Overlap[k][j] {
				t.Errorf("Overlap not symmetric at %d,%d", j, k)
			}
		}
	}
}

func TestPreprocessDeterministic(t *testing.T) {
	cat := testCatalog(t)
	queries := workloadPlans(t, cat)
	a := Preprocess(queries, nil)
	b := Preprocess(queries, nil)
	if len(a.Clusters) != len(b.Clusters) {
		t.Fatal("cluster counts differ between runs")
	}
	for i := range a.Clusters {
		if a.Clusters[i].Fingerprint != b.Clusters[i].Fingerprint {
			t.Fatalf("cluster %d fingerprint differs", i)
		}
	}
}

func TestPreprocessMinShareOption(t *testing.T) {
	cat := testCatalog(t)
	queries := workloadPlans(t, cat)
	res := Preprocess(queries, &Options{MinShare: 1})
	// Every cluster becomes a candidate, including singletons.
	if len(res.Candidates) != len(res.Clusters) {
		t.Errorf("MinShare=1: %d candidates for %d clusters", len(res.Candidates), len(res.Clusters))
	}
}

func TestPreprocessCostOfPicksCheapestRepresentative(t *testing.T) {
	cat := testCatalog(t)
	queries := workloadPlans(t, cat)
	called := 0
	res := Preprocess(queries, &Options{CostOf: func(n *plan.Node) float64 {
		called++
		return float64(n.Count())
	}})
	if called == 0 {
		t.Error("CostOf was never consulted")
	}
	if len(res.Candidates) != 1 {
		t.Fatalf("want 1 candidate, got %d", len(res.Candidates))
	}
}

func TestClusterMembersAreMutuallyEquivalent(t *testing.T) {
	// Property: every pair of members inside one cluster shares a
	// normalized fingerprint; members of different clusters never do.
	cat := testCatalog(t)
	queries := workloadPlans(t, cat)
	// Duplicate the workload with alias renames to exercise the
	// normalization paths.
	sqls := []string{
		`select a1.user_id, count(*) as cnt
		 from ( select user_id, memo from user_memo where memo_type='p' and dt='1' ) a1
		 inner join ( select user_id, action from user_action where dt='1' and type = 1 ) a2
		 on a1.user_id = a2.user_id group by a1.user_id`,
	}
	for _, s := range sqls {
		queries = append(queries, mustPlan(t, cat, s))
	}
	res := Preprocess(queries, &Options{MinShare: 1})
	for _, c := range res.Clusters {
		for i := 0; i < len(c.Members); i++ {
			for j := i + 1; j < len(c.Members); j++ {
				if !sameClass(c.Members[i].Subquery.Root, c.Members[j].Subquery.Root) {
					t.Fatalf("cluster %d: members %d,%d not equivalent", c.ID, i, j)
				}
			}
		}
	}
	for a := 0; a < len(res.Clusters); a++ {
		for b := a + 1; b < len(res.Clusters); b++ {
			if sameClass(res.Clusters[a].Members[0].Subquery.Root, res.Clusters[b].Members[0].Subquery.Root) {
				t.Fatalf("clusters %d and %d hold equivalent members but were not merged", a, b)
			}
		}
	}
}

func TestPreprocessConjunctOrderJoinsClusters(t *testing.T) {
	// The same fragment written with swapped conjuncts and a different
	// alias must land in one cluster (the EQUITAS-substitute's job).
	cat := testCatalog(t)
	q1 := mustPlan(t, cat, "select x.user_id from ( select user_id from user_memo where dt='9' and memo_type='z' ) x where x.user_id < 10")
	q2 := mustPlan(t, cat, "select y.user_id from ( select user_id from user_memo where memo_type='z' and dt='9' ) y where y.user_id < 10")
	res := Preprocess([]*plan.Node{q1, q2}, nil)
	found := false
	for _, c := range res.Clusters {
		if c.SharedBy() == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("equivalent fragments with reordered conjuncts did not cluster")
	}
}
