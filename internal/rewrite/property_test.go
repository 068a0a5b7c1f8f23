package rewrite

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"autoview/internal/catalog"
	"autoview/internal/engine"
	"autoview/internal/plan"
	"autoview/internal/storage"
)

// randCatalog builds a random 2-4 table catalog with a shared join key.
func randCatalog(rng *rand.Rand) *catalog.Catalog {
	cat := catalog.New()
	n := 2 + rng.Intn(3)
	for t := 0; t < n; t++ {
		cols := []catalog.Column{
			{Name: "k", Type: catalog.TypeInt, Distinct: 10 + rng.Intn(30)},
			{Name: "a", Type: catalog.TypeInt, Distinct: 2 + rng.Intn(6)},
			{Name: "b", Type: catalog.TypeString, Distinct: 2 + rng.Intn(5)},
			{Name: "c", Type: catalog.TypeFloat, Distinct: 5 + rng.Intn(20)},
		}
		if err := cat.Add(&catalog.Table{
			Name:    fmt.Sprintf("t%d", t),
			Columns: cols,
			Stats:   catalog.TableStats{Rows: 50 + rng.Intn(300)},
		}); err != nil {
			panic(err)
		}
	}
	return cat
}

// randPred emits 1-3 random conjuncts over columns a, b, c of a table.
func randPred(rng *rand.Rand, cat *catalog.Catalog, table string) []string {
	t, _ := cat.Table(table)
	cols := t.Columns // k, a, b, c (randCatalog)
	var preds []string
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		switch rng.Intn(3) {
		case 0:
			preds = append(preds, fmt.Sprintf("a = %d", rng.Intn(cols[1].Distinct)))
		case 1:
			preds = append(preds, fmt.Sprintf("b = 'v%d'", rng.Intn(cols[2].Distinct)))
		default:
			preds = append(preds, fmt.Sprintf("c < %d.5", rng.Intn(cols[3].Distinct)))
		}
	}
	return preds
}

// randQuery emits a random query: derived table, optional join, optional
// aggregation. It returns the SQL plus the WHERE conjunct lists so
// transformations can shuffle them.
func randQuery(rng *rand.Rand, cat *catalog.Catalog) string {
	tables := cat.Tables()
	t1 := tables[rng.Intn(len(tables))].Name
	p1 := randPred(rng, cat, t1)
	left := fmt.Sprintf("( select k, a, c from %s where %s ) x", t1, strings.Join(p1, " and "))

	join := ""
	qual := "x"
	if rng.Intn(2) == 0 {
		t2 := tables[rng.Intn(len(tables))].Name
		p2 := randPred(rng, cat, t2)
		join = fmt.Sprintf(" inner join ( select k, b from %s where %s ) y on x.k = y.k",
			t2, strings.Join(p2, " and "))
		if rng.Intn(2) == 0 {
			qual = "y"
		}
	}

	if rng.Intn(2) == 0 && join != "" {
		col := "a"
		if qual == "y" {
			col = "b"
		}
		return fmt.Sprintf("select %s.%s, count(*) as n, sum(x.c) as s from %s%s group by %s.%s",
			qual, col, left, join, qual, col)
	}
	if join != "" {
		return fmt.Sprintf("select x.k, x.a, y.b from %s%s", left, join)
	}
	return fmt.Sprintf("select x.k, x.a from %s", left)
}

func execRows(t *testing.T, exec *engine.Executor, n *plan.Node) map[string]int {
	t.Helper()
	res, _, err := exec.Execute(n)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	out := map[string]int{}
	for _, row := range res.Rows {
		key := ""
		for _, v := range row {
			key += v.String() + "|"
		}
		out[key]++
	}
	return out
}

func sameRows(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestPropertyNormalizePreservesSemantics: Normalize(q) must compute the
// same relation as q on random data, and fingerprints must be stable
// under normalization idempotence.
func TestPropertyNormalizePreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 60; trial++ {
		cat := randCatalog(rng)
		store := storage.Populate(cat, rand.New(rand.NewSource(int64(trial))))
		exec := engine.New(store)
		sql := randQuery(rng, cat)
		q, err := plan.Parse(sql, cat)
		if err != nil {
			t.Fatalf("trial %d: parse %q: %v", trial, sql, err)
		}
		nq := plan.Normalize(q)
		if !sameRows(execRows(t, exec, q), execRows(t, exec, nq)) {
			t.Fatalf("trial %d: normalization changed results\nSQL: %s", trial, sql)
		}
		if plan.FingerprintOf(plan.Normalize(nq)) != plan.FingerprintOf(nq) {
			t.Fatalf("trial %d: Normalize is not idempotent", trial)
		}
	}
}

// TestPropertyConjunctShuffleInvariance: shuffling WHERE conjuncts keeps
// the normalized fingerprint and the results identical.
func TestPropertyConjunctShuffleInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		cat := randCatalog(rng)
		tbl := cat.Tables()[0].Name
		preds := randPred(rng, cat, tbl)
		if len(preds) < 2 {
			preds = append(preds, "a = 0")
		}
		sql1 := fmt.Sprintf("select k from %s where %s", tbl, strings.Join(preds, " and "))
		shuffled := append([]string(nil), preds...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		sql2 := fmt.Sprintf("select k from %s where %s", tbl, strings.Join(shuffled, " and "))

		q1, err := plan.Parse(sql1, cat)
		if err != nil {
			t.Fatal(err)
		}
		q2, err := plan.Parse(sql2, cat)
		if err != nil {
			t.Fatal(err)
		}
		if plan.NormalizedFingerprint(q1) != plan.NormalizedFingerprint(q2) {
			t.Fatalf("trial %d: conjunct order changed fingerprint\n%s\n%s", trial, sql1, sql2)
		}
		store := storage.Populate(cat, rand.New(rand.NewSource(int64(trial))))
		exec := engine.New(store)
		if !sameRows(execRows(t, exec, q1), execRows(t, exec, q2)) {
			t.Fatalf("trial %d: conjunct order changed results", trial)
		}
	}
}

// TestPropertyRewritePreservesSemantics: for random queries, materializing
// any extracted subquery and rewriting must keep the result multiset
// identical, and the usage engine.Compose prices the rewrite at from
// the query's trace must equal, in all four fields, the usage of
// executing the rewritten plan. Composing refuses only where a view's
// rows or bytes differ from the subtree it replaces, and a view holds
// exactly its subtree's rows, so no rewrite here may be refused.
func TestPropertyRewritePreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(4096))
	trials, rewrites := 0, 0
	for trial := 0; trial < 80; trial++ {
		cat := randCatalog(rng)
		store := storage.Populate(cat, rand.New(rand.NewSource(int64(trial)*3+1)))
		exec := engine.New(store)
		mgr := NewManager(store)
		sql := randQuery(rng, cat)
		q, err := plan.Parse(sql, cat)
		if err != nil {
			t.Fatalf("trial %d: parse %q: %v", trial, sql, err)
		}
		orig := execRows(t, exec, q)
		tr, err := exec.Trace(q)
		if err != nil {
			t.Fatal(err)
		}
		trials++
		for _, sub := range plan.ExtractSubqueries(q) {
			v, err := mgr.Materialize(sub.Root)
			if err != nil {
				t.Fatalf("trial %d: materialize: %v", trial, err)
			}
			rw, reps := Replace(q, []*View{v})
			if len(reps) == 0 {
				continue
			}
			rewrites++
			want, err := exec.Cost(rw)
			if err != nil {
				t.Fatal(err)
			}
			if u, ok := exec.Compose(tr, reps); !ok || u != want {
				t.Fatalf("trial %d: composed usage %+v (composed: %v), executed %+v\nSQL: %s\nview:\n%s",
					trial, u, ok, want, sql, v.Plan)
			}
			got := execRows(t, exec, rw)
			// Semantics must be preserved. Note the metered cost is
			// NOT asserted: a many-to-many join view can cost more
			// to scan than to recompute — distinguishing those cases
			// is exactly the cost estimator's job.
			if !sameRows(orig, got) {
				t.Fatalf("trial %d: rewrite changed results\nSQL: %s\nview:\n%s",
					trial, sql, v.Plan)
			}
		}
	}
	if rewrites < 30 {
		t.Fatalf("only %d rewrites across %d trials; generator too weak", rewrites, trials)
	}
}

// TestPropertyAliasInvariance: renaming aliases never changes normalized
// fingerprints.
func TestPropertyAliasInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	for trial := 0; trial < 40; trial++ {
		cat := randCatalog(rng)
		tbl := cat.Tables()[0].Name
		preds := strings.Join(randPred(rng, cat, tbl), " and ")
		sql1 := fmt.Sprintf("select u.k from ( select k, a from %s where %s ) u", tbl, preds)
		sql2 := fmt.Sprintf("select w.k from ( select k, a from %s where %s ) w", tbl, preds)
		q1, err := plan.Parse(sql1, cat)
		if err != nil {
			t.Fatal(err)
		}
		q2, err := plan.Parse(sql2, cat)
		if err != nil {
			t.Fatal(err)
		}
		if plan.NormalizedFingerprint(q1) != plan.NormalizedFingerprint(q2) {
			t.Fatalf("trial %d: alias changed fingerprint", trial)
		}
	}
}

// TestPropertyToSQLRoundTrip: rendering any random query plan back to SQL
// and re-parsing must preserve the computed relation.
func TestPropertyToSQLRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 60; trial++ {
		cat := randCatalog(rng)
		store := storage.Populate(cat, rand.New(rand.NewSource(int64(trial)*7+2)))
		exec := engine.New(store)
		sql := randQuery(rng, cat)
		orig, err := plan.Parse(sql, cat)
		if err != nil {
			t.Fatalf("trial %d: parse %q: %v", trial, sql, err)
		}
		rendered := plan.ToSQL(orig)
		back, err := plan.Parse(rendered, cat)
		if err != nil {
			t.Fatalf("trial %d: rendered SQL does not parse: %v\noriginal: %s\nrendered: %s",
				trial, err, sql, rendered)
		}
		a := execRows(t, exec, orig)
		b := execRows(t, exec, back)
		if !sameRows(a, b) {
			t.Fatalf("trial %d: ToSQL changed results\noriginal: %s\nrendered: %s",
				trial, sql, rendered)
		}
	}
}
