package core

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"slices"
	"testing"

	"autoview/internal/engine"
	"autoview/internal/rewrite"
	"autoview/internal/storage"
	"autoview/internal/workload"
)

// writeUsage writes one Usage's four fields to h.
func writeUsage(h io.Writer, u engine.Usage) {
	fmt.Fprintf(h, "%d %d %d %d\n", u.CPUOps, u.PeakBytes, u.OutRows, u.OutBytes)
}

// meterCase is one built-in workload's problem at its ConfigFor budgets
// under EstimatorActual, so every benefit is metered and no fit runs, on
// GOMAXPROCS workers. -short builds JOB's only.
type meterCase struct {
	name string
	a    *Advisor
	p    *Problem
}

func meterCases(t *testing.T) []meterCase {
	t.Helper()
	ws := []*workload.Workload{workload.JOB()}
	if !testing.Short() {
		ws = append(ws, workload.WK1(), workload.WK2())
	}
	var out []meterCase
	for _, w := range ws {
		cfg := ConfigFor(w.Name)
		cfg.Estimator = EstimatorActual
		cfg.Parallelism = runtime.GOMAXPROCS(0)
		a := newAdvisor(t, w, cfg)
		p, err := a.BuildProblem(w.Plans(), a.Preprocess(w.Plans()))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, meterCase{w.Name, a, p})
	}
	return out
}

// rowMultiset renders each row as a string of its values' kinds and bits
// and returns them sorted: two results hold the same rows as a multiset
// when these are equal.
func rowMultiset(rows []storage.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var b []byte
		for _, v := range r {
			b = fmt.Appendf(b, "%d:%d:%x:%q|", v.Kind, v.I, math.Float64bits(v.F), v.S)
		}
		out[i] = string(b)
	}
	slices.Sort(out)
	return out
}

// TestComposedPairsMatchExecution executes every single-view rewrite of
// the three workloads — each candidate against each query of its
// cluster that it rewrites — as the oracle of the usage BuildProblem
// composed for it from the query's trace: all four fields must be equal,
// with no pair executed for want of composing it. The FNV-64a hash of
// the executed usages, in candidate then query order, is pinned to the
// value it had when every pair was executed to meter it. Each rewritten
// plan must also return the original query's rows as a multiset: the
// premise composing rests on, that a view scan yields its subtree's rows.
func TestComposedPairsMatchExecution(t *testing.T) {
	golden := map[string]struct {
		pairs int
		hash  string
	}{
		"JOB": {310, "2a6d472b8693123f"},
		"WK1": {607, "aaba10e9f6c55baf"},
		"WK2": {1308, "515227bfd7171b16"},
	}
	executed := obsPairsExecuted.Value()
	for _, c := range meterCases(t) {
		a, p := c.a, c.p
		orig := make(map[int][]string)
		h := fnv.New64a()
		pairs := 0
		for _, cand := range p.Candidates {
			for _, qi := range cand.Queries {
				views := []*rewrite.View{cand.View}
				rw, n := rewrite.Rewrite(p.Queries[qi], views)
				if n == 0 {
					continue
				}
				res, want, err := a.Exec.Execute(rw)
				if err != nil {
					t.Fatal(err)
				}
				writeUsage(h, want)
				pairs++
				got, _, err := a.rewrittenUsage(p, qi, views)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%s: query %d with %s: composed %+v, executed %+v", c.name, qi, cand.View.ID, got, want)
				}
				if orig[qi] == nil {
					q, _, err := a.Exec.Execute(p.Queries[qi])
					if err != nil {
						t.Fatal(err)
					}
					orig[qi] = rowMultiset(q.Rows)
				}
				if !slices.Equal(rowMultiset(res.Rows), orig[qi]) {
					t.Errorf("%s: query %d rewritten with %s returns other rows than the query", c.name, qi, cand.View.ID)
				}
			}
		}
		g := golden[c.name]
		if got := fmt.Sprintf("%016x", h.Sum64()); pairs != g.pairs || got != g.hash {
			t.Errorf("%s: %d single-view pairs hash to %s, want %d to %s", c.name, pairs, got, g.pairs, g.hash)
		}
	}
	if n := obsPairsExecuted.Value() - executed; n != 0 {
		t.Errorf("%d pairs executed instead of composed, want 0", n)
	}
}

// TestComposedApplyMatchesExecution: under each workload's default
// selector, every query the selected views rewrite is executed as the
// oracle of the usage Apply composes for it; all four fields must be
// equal with no query executed for want of composing it, and the hash
// of the executed usages, in query order, is pinned to the value it had
// when Apply executed every rewritten query.
func TestComposedApplyMatchesExecution(t *testing.T) {
	golden := map[string]struct {
		applied int
		hash    string
	}{
		"JOB": {186, "48284ecc1de06612"},
		"WK1": {391, "2b1c1d8f7484dbc3"},
		"WK2": {820, "1073055f6a007ede"},
	}
	executed := obsPairsExecuted.Value()
	for _, c := range meterCases(t) {
		a, p := c.a, c.p
		sel, err := a.Select(p)
		if err != nil {
			t.Fatal(err)
		}
		var views []*rewrite.View
		for j, z := range sel.Z {
			if z {
				views = append(views, p.Candidates[j].View)
			}
		}
		h := fnv.New64a()
		applied := 0
		for i, q := range p.Queries {
			rw, n := rewrite.Rewrite(q, views)
			if n == 0 {
				continue
			}
			want, err := a.Exec.Cost(rw)
			if err != nil {
				t.Fatal(err)
			}
			writeUsage(h, want)
			applied++
			if got, _, err := a.rewrittenUsage(p, i, views); err != nil || got != want {
				t.Errorf("%s: query %d: composed %+v (%v), executed %+v", c.name, i, got, err, want)
			}
		}
		g := golden[c.name]
		if got := fmt.Sprintf("%016x", h.Sum64()); applied != g.applied || got != g.hash {
			t.Errorf("%s: %s rewrites %d queries, hashing to %s; want %d to %s", c.name, sel.Method, applied, got, g.applied, g.hash)
		}
	}
	if n := obsPairsExecuted.Value() - executed; n != 0 {
		t.Errorf("%d rewritten queries executed instead of composed, want 0", n)
	}
}

// TestRewrittenUsageExecutesWhatItCannotCompose: once a view's backing
// table no longer holds its subtree's rows (one row dropped), the
// query's trace cannot price the rewrite: rewrittenUsage executes the
// rewritten plan instead, counts it in core.pairs.executed, and returns
// the executed usage.
func TestRewrittenUsageExecutesWhatItCannotCompose(t *testing.T) {
	w := smallWK()
	a := newAdvisor(t, w, fastConfig())
	p, err := a.BuildProblem(w.Plans(), a.Preprocess(w.Plans()))
	if err != nil {
		t.Fatal(err)
	}
	cand := p.Candidates[0]
	qi, views := cand.Queries[0], []*rewrite.View{cand.View}
	tbl, _ := a.Exec.Store.Get(cand.View.TableName)
	short := storage.NewTable(tbl.Meta)
	short.Rows = tbl.Rows[1:]
	a.Exec.Store.Put(short)

	executed := obsPairsExecuted.Value()
	got, n, err := a.rewrittenUsage(p, qi, views)
	if err != nil {
		t.Fatal(err)
	}
	rw, _ := rewrite.Rewrite(p.Queries[qi], views)
	want, err := a.Exec.Cost(rw)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || got != want {
		t.Fatalf("%d replacements, usage %+v; want the executed %+v", n, got, want)
	}
	if d := obsPairsExecuted.Value() - executed; d != 1 {
		t.Fatalf("core.pairs.executed moved by %d, want 1", d)
	}
}
