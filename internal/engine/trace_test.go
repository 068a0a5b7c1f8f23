package engine

import (
	"fmt"
	"testing"

	"autoview/internal/catalog"
	"autoview/internal/plan"
	"autoview/internal/storage"
)

// replaceNodes returns a copy of root with each node of reps (nodes of
// root) turned into a scan of its table, as rewrite.Replace does.
func replaceNodes(root *plan.Node, reps []Replacement) *plan.Node {
	cp := root.Clone()
	var walk func(n, o *plan.Node)
	walk = func(n, o *plan.Node) {
		for _, r := range reps {
			if r.Node == o {
				*n = plan.Node{Op: plan.OpScan, Table: r.Table, Schema: n.Schema}
				return
			}
		}
		for i, c := range n.Children {
			walk(c, o.Children[i])
		}
	}
	walk(cp, root)
	return cp
}

// materialize stores n's result as table name, the way a view's backing
// table holds its subquery's rows.
func materialize(t *testing.T, st *storage.Store, name string, n *plan.Node) {
	t.Helper()
	res, _, err := New(st).Execute(n)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([]catalog.Column, len(res.Schema))
	for i, c := range res.Schema {
		cols[i] = catalog.Column{Name: fmt.Sprintf("%s_%d", c.Name, i), Type: c.Type}
	}
	tbl := storage.NewTable(&catalog.Table{Name: name, Columns: cols})
	tbl.Rows = res.Rows
	st.Put(tbl)
}

// TestComposeMatchesExecution replaces every non-scan node of the
// fixture's queries, and every pair of disjoint ones, by a scan of a
// table holding its rows, and requires Compose's usage to equal, in all
// four fields, the usage of executing the rewritten plan, and composing
// to allocate nothing.
func TestComposeMatchesExecution(t *testing.T) {
	cat, st := fixture(t)
	e := New(st)
	checked := 0
	for _, sql := range []string{
		"select u.city, count(*) as n, sum(o.amount) as s from users u inner join orders o on u.id = o.uid where o.amount > 4 group by u.city having n > 1",
		"select o.uid, u.city from orders o left join users u on o.uid = u.id",
		"select x.id, y.amount from (select id from users where city = 'bj') x inner join (select uid, amount from orders where amount < 50) y on x.id = y.uid",
	} {
		q, err := plan.Parse(sql, cat)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := e.Trace(q)
		if err != nil {
			t.Fatal(err)
		}
		var nodes []*plan.Node
		q.Walk(func(n *plan.Node) {
			if n.Op != plan.OpScan {
				materialize(t, st, fmt.Sprintf("mv_%d", len(nodes)), n)
				nodes = append(nodes, n)
			}
		})
		var sets [][]Replacement
		for i, a := range nodes {
			ra := Replacement{Node: a, Table: fmt.Sprintf("mv_%d", i)}
			sets = append(sets, []Replacement{ra})
			for j, b := range nodes[i+1:] {
				if tr.nodes[tr.find(a)].end <= tr.find(b) {
					sets = append(sets, []Replacement{ra, {Node: b, Table: fmt.Sprintf("mv_%d", i+1+j)}})
				}
			}
		}
		for _, reps := range sets {
			want, err := e.Cost(replaceNodes(q, reps))
			if err != nil {
				t.Fatal(err)
			}
			got, ok := e.Compose(tr, reps)
			if !ok || got != want {
				t.Fatalf("%s, %d replaced: composed %+v (%v), executed %+v", sql, len(reps), got, ok, want)
			}
			if n := testing.AllocsPerRun(10, func() { e.Compose(tr, reps) }); n != 0 {
				t.Fatalf("%s, %d replaced: composing allocates %v objects", sql, len(reps), n)
			}
			checked++
		}
	}
	if checked < 16 {
		t.Fatalf("only %d rewrites checked", checked)
	}
}

// TestComposeRefusesWhatItCannotPrice: Compose reports false for a node
// the trace does not hold, two overlapping replacements, a missing
// table, and a table whose rows differ from its subtree's output.
func TestComposeRefusesWhatItCannotPrice(t *testing.T) {
	cat, st := fixture(t)
	e := New(st)
	q, err := plan.Parse("select u.id, o.amount from users u inner join orders o on u.id = o.uid where o.amount > 4", cat)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := e.Trace(q)
	if err != nil {
		t.Fatal(err)
	}
	var join *plan.Node
	q.Walk(func(n *plan.Node) {
		if n.Op == plan.OpJoin {
			join = n
		}
	})
	materialize(t, st, "mv_join", join)
	materialize(t, st, "mv_root", q)
	if _, ok := e.Compose(tr, []Replacement{{Node: join, Table: "mv_join"}}); !ok {
		t.Fatal("the join's own rows could not be composed")
	}
	mv, _ := st.Get("mv_join")
	fewer := storage.NewTable(&catalog.Table{Name: "mv_fewer", Columns: mv.Meta.Columns})
	fewer.Rows = mv.Rows[1:]
	st.Put(fewer)
	for name, reps := range map[string][]Replacement{
		"foreign node":  {{Node: join.Clone(), Table: "mv_join"}},
		"overlapping":   {{Node: q, Table: "mv_root"}, {Node: join, Table: "mv_join"}},
		"same node":     {{Node: join, Table: "mv_join"}, {Node: join, Table: "mv_join"}},
		"missing table": {{Node: join, Table: "mv_none"}},
		"fewer rows":    {{Node: join, Table: "mv_fewer"}},
		"other width":   {{Node: join, Table: "users"}},
	} {
		if u, ok := e.Compose(tr, reps); ok {
			t.Errorf("%s: composed %+v, want a refusal", name, u)
		}
	}
}
