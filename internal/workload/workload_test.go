package workload

import (
	"math/rand"
	"testing"

	"autoview/internal/engine"
	"autoview/internal/equiv"
	"autoview/internal/plan"
)

func TestJOBShapeMatchesTableI(t *testing.T) {
	w := JOB()
	if w.Cat.Len() != 21 {
		t.Errorf("JOB tables = %d, want 21 (Table I)", w.Cat.Len())
	}
	if len(w.Queries) != 226 {
		t.Errorf("JOB queries = %d, want 226 (Table I)", len(w.Queries))
	}
	pre := equiv.Preprocess(w.Plans(), nil)
	stats := w.Describe(pre)
	if stats.Projects != 1 {
		t.Errorf("JOB projects = %d, want 1", stats.Projects)
	}
	// Table I: 398 subqueries, 28 candidates, 220 associated queries,
	// 74 overlapping pairs. We require the same order of magnitude and
	// the same qualitative relations.
	if stats.Subqueries < 300 || stats.Subqueries > 800 {
		t.Errorf("JOB subqueries = %d, want a few hundred", stats.Subqueries)
	}
	if stats.Candidates < 25 || stats.Candidates > 90 {
		t.Errorf("JOB |Z| = %d, want a few dozen (paper: 28; ours adds weak and join-group candidates)", stats.Candidates)
	}
	if stats.AssociatedQuery < 180 || stats.AssociatedQuery > 226 {
		t.Errorf("JOB |Q| = %d, want ≈220", stats.AssociatedQuery)
	}
	if stats.OverlappingPairs < 10 {
		t.Errorf("JOB overlapping pairs = %d, want tens", stats.OverlappingPairs)
	}
	if stats.EquivalentPairs < 200 {
		t.Errorf("JOB equivalent pairs = %d, want hundreds", stats.EquivalentPairs)
	}
}

func TestJOBTwinsShareFragment(t *testing.T) {
	w := JOB()
	// Query 2k and 2k+1 are a template and its mutated twin; they must
	// share at least one subquery cluster (the pooled fragment) while
	// not being identical.
	for k := 0; k < 5; k++ {
		a, b := w.Queries[2*k], w.Queries[2*k+1]
		if a.SQL == b.SQL {
			t.Errorf("template %d: twin is identical", k)
		}
		shared := false
		for _, sa := range plan.ExtractSubqueries(a.Plan) {
			for _, sb := range plan.ExtractSubqueries(b.Plan) {
				if plan.NormalizedFingerprint(sa.Root) == plan.NormalizedFingerprint(sb.Root) {
					shared = true
				}
			}
		}
		if !shared {
			t.Errorf("template %d: twin shares no subquery", k)
		}
	}
}

func TestJOBDeterministic(t *testing.T) {
	a, b := JOB(), JOB()
	if len(a.Queries) != len(b.Queries) {
		t.Fatal("query counts differ")
	}
	for i := range a.Queries {
		if a.Queries[i].SQL != b.Queries[i].SQL {
			t.Fatalf("query %d differs between runs", i)
		}
	}
}

func TestJOBExecutes(t *testing.T) {
	w := JOB()
	st := w.Populate()
	exec := engine.New(st)
	for _, q := range w.Queries[:20] {
		if _, err := exec.Cost(q.Plan); err != nil {
			t.Fatalf("query %s failed: %v", q.ID, err)
		}
	}
}

func TestWKShapes(t *testing.T) {
	for _, tc := range []struct {
		w                 *Workload
		projects, queries int
		minCand, maxCand  int
	}{
		{WK1(), 21, 600, 60, 170},
		{WK2(), 25, 1000, 120, 280},
	} {
		pre := equiv.Preprocess(tc.w.Plans(), nil)
		stats := tc.w.Describe(pre)
		if stats.Projects != tc.projects {
			t.Errorf("%s projects = %d, want %d", tc.w.Name, stats.Projects, tc.projects)
		}
		if stats.Queries != tc.queries {
			t.Errorf("%s queries = %d, want %d", tc.w.Name, stats.Queries, tc.queries)
		}
		if stats.Candidates < tc.minCand || stats.Candidates > tc.maxCand {
			t.Errorf("%s |Z| = %d, want in [%d,%d]", tc.w.Name, stats.Candidates, tc.minCand, tc.maxCand)
		}
		if stats.AssociatedQuery < tc.queries/2 {
			t.Errorf("%s |Q| = %d, too few sharing queries", tc.w.Name, stats.AssociatedQuery)
		}
	}
}

func TestWK2BiggerThanWK1(t *testing.T) {
	// Table I's ordering: WK2 has more tables, queries, subqueries and
	// candidates than WK1.
	w1, w2 := WK1(), WK2()
	p1 := equiv.Preprocess(w1.Plans(), nil)
	p2 := equiv.Preprocess(w2.Plans(), nil)
	s1, s2 := w1.Describe(p1), w2.Describe(p2)
	if s2.Tables <= s1.Tables {
		t.Errorf("tables: WK2 %d <= WK1 %d", s2.Tables, s1.Tables)
	}
	if s2.Queries <= s1.Queries {
		t.Errorf("queries: WK2 %d <= WK1 %d", s2.Queries, s1.Queries)
	}
	if s2.Subqueries <= s1.Subqueries {
		t.Errorf("subqueries: WK2 %d <= WK1 %d", s2.Subqueries, s1.Subqueries)
	}
	if s2.Candidates <= s1.Candidates {
		t.Errorf("candidates: WK2 %d <= WK1 %d", s2.Candidates, s1.Candidates)
	}
}

func TestWKDeterministicAndExecutes(t *testing.T) {
	a, b := WK1(), WK1()
	for i := range a.Queries {
		if a.Queries[i].SQL != b.Queries[i].SQL {
			t.Fatalf("WK1 query %d differs between runs", i)
		}
	}
	st := a.Populate()
	exec := engine.New(st)
	for _, q := range a.Queries[:15] {
		if _, err := exec.Cost(q.Plan); err != nil {
			t.Fatalf("query %s failed: %v\nSQL: %s", q.ID, err, q.SQL)
		}
	}
}

func TestRedundancyAnalysis(t *testing.T) {
	w := WK1()
	pre := equiv.Preprocess(w.Plans(), nil)
	rows := w.Redundancy(pre)
	if len(rows) != 21 {
		t.Fatalf("redundancy rows = %d, want 21 projects", len(rows))
	}
	var total, redundant int
	for _, r := range rows {
		if r.Redundant > r.Total {
			t.Errorf("project %s: redundant %d > total %d", r.Project, r.Redundant, r.Total)
		}
		total += r.Total
		redundant += r.Redundant
	}
	if total != 600 {
		t.Errorf("total = %d, want 600", total)
	}
	if redundant == 0 {
		t.Error("no redundant queries found; sharing generator broken")
	}
	curve := CumulativeRedundancy(rows)
	if len(curve) != 21 {
		t.Fatalf("cumulative curve length %d", len(curve))
	}
	// Monotone non-decreasing and ending at the global ratio.
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1]-1e-9 {
			t.Errorf("cumulative curve decreases at %d", i)
		}
	}
	wantEnd := 100 * float64(redundant) / float64(total)
	if diff := curve[len(curve)-1] - wantEnd; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("curve end = %v, want %v", curve[len(curve)-1], wantEnd)
	}
}

func TestProjectExtraction(t *testing.T) {
	w := WK1()
	name := w.TopProjects(1)[0]
	sub := w.Project(name)
	if len(sub.Queries) == 0 {
		t.Fatal("largest project has no queries")
	}
	for _, q := range sub.Queries {
		if q.Project != name {
			t.Errorf("query %s from project %s leaked into %s", q.ID, q.Project, name)
		}
	}
	if sub.Cat != w.Cat {
		t.Error("project sub-workload should share the catalog")
	}
}

func TestZipfPickSkew(t *testing.T) {
	rngHi := newRng(1)
	rngLo := newRng(1)
	countsHi := make([]int, 10)
	countsLo := make([]int, 10)
	for i := 0; i < 5000; i++ {
		countsHi[zipfPick(rngHi, 10, 2.0)]++
		countsLo[zipfPick(rngLo, 10, 0.3)]++
	}
	if countsHi[0] <= countsLo[0] {
		t.Errorf("high skew head %d should exceed low skew head %d", countsHi[0], countsLo[0])
	}
	if countsHi[0] <= countsHi[9] {
		t.Error("zipf head should dominate tail")
	}
}

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
