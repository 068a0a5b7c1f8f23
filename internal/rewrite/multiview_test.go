package rewrite

import (
	"fmt"
	"strings"
	"testing"

	"autoview/internal/plan"
)

// SerialText is the plan.Serialize text the differential tests compare.
func SerialText(n *plan.Node) string {
	var b strings.Builder
	for _, s := range plan.Serialize(n) {
		b.WriteString(s.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// assertMatchesReference checks Rewrite against the unmemoized oracle and
// returns the replacement count.
func assertMatchesReference(t *testing.T, q *plan.Node, views []*View) int {
	t.Helper()
	want, wantN := ReferenceRewrite(q, views, false)
	got, gotN := Rewrite(q, views)
	if gotN != wantN {
		t.Fatalf("Rewrite made %d replacements, the reference %d", gotN, wantN)
	}
	if g, w := SerialText(got), SerialText(want); g != w {
		t.Fatalf("Rewrite diverges from the reference\ngot:\n%swant:\n%s", g, w)
	}
	return gotN
}

const (
	memoSub   = "select user_id, memo from user_memo where dt='v1' and memo_type = 'v2'"
	actionSub = "select user_id, action from user_action where type = 1 and dt='v1'"
)

func TestRewriteMultiViewHandBuilt(t *testing.T) {
	cat, st := testEnv(t)
	mgr := NewManager(st)
	parse := func(sql string) *plan.Node {
		t.Helper()
		n, err := plan.Parse(sql, cat)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		return n
	}
	view := func(n *plan.Node) *View {
		t.Helper()
		v, err := mgr.Materialize(n)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	root := parse(exampleSQL)
	var joinV, memoV, actionV *View
	for _, s := range plan.ExtractSubqueries(root) {
		switch {
		case s.Root.Op == plan.OpJoin:
			joinV = view(s.Root)
		case s.Root.Tables()[0] == "user_memo":
			memoV = view(s.Root)
		default:
			actionV = view(s.Root)
		}
	}
	if joinV == nil || memoV == nil || actionV == nil {
		t.Fatal("example query lost a subquery")
	}

	t.Run("view nested inside a selected view", func(t *testing.T) {
		// The join sits above both leaves, so it wins in any input order
		// and the leaves disappear with it.
		for _, views := range [][]*View{
			{joinV, memoV, actionV}, {memoV, joinV, actionV}, {actionV, memoV, joinV},
		} {
			if n := assertMatchesReference(t, root, views); n != 1 {
				t.Fatalf("want the join alone, got %d replacements", n)
			}
		}
	})

	t.Run("inner view shallower elsewhere spoils the outer one", func(t *testing.T) {
		// memo occurs directly under the top join and again inside the
		// nested copy of the example's join. Its shallowest match is
		// above the join view's only match, so it is applied first and
		// the nested join no longer matches its view.
		q := parse(fmt.Sprintf(`select a.user_id, j.action from ( %s ) a inner join
			( select t1.user_id, t2.action from ( %s ) t1 inner join ( %s ) t2 on t1.user_id = t2.user_id ) j
			on a.user_id = j.user_id`, memoSub, memoSub, actionSub))
		if n := assertMatchesReference(t, q, []*View{joinV, memoV}); n != 2 {
			t.Fatalf("want both memo occurrences and no join, got %d replacements", n)
		}
		rw, _ := Rewrite(q, []*View{joinV, memoV})
		if strings.Contains(SerialText(rw), joinV.TableName+",") {
			t.Fatalf("the spoiled join view was used:\n%s", SerialText(rw))
		}
		// Without the leaf in the set the join view does match there.
		if n := assertMatchesReference(t, q, []*View{joinV}); n != 1 {
			t.Fatalf("join view alone: %d replacements, want 1", n)
		}
	})

	t.Run("same view twice in one query", func(t *testing.T) {
		q := parse(fmt.Sprintf(`select x.user_id, y.memo from ( %s ) x inner join ( %s ) y
			on x.user_id = y.user_id`, memoSub, memoSub))
		for _, views := range [][]*View{{memoV}, {actionV, memoV}, {joinV, memoV, actionV}} {
			if n := assertMatchesReference(t, q, views); n != 2 {
				t.Fatalf("want both occurrences replaced, got %d", n)
			}
		}
	})

	t.Run("stacked filter and commuted join spelling", func(t *testing.T) {
		q := parse(`select t2.user_id, count(*) as cnt
			from ( select user_id, action from user_action where dt='v1' and type = 1 ) t2
			inner join ( select u.user_id, u.memo from
				( select user_id, memo, memo_type from user_memo where dt='v1' ) u where u.memo_type = 'v2' ) t1
			on t2.user_id = t1.user_id group by t2.user_id`)
		if n := assertMatchesReference(t, q, []*View{memoV, actionV}); n != 2 {
			t.Fatalf("respelled leaves: %d replacements, want 2", n)
		}
		assertMatchesReference(t, q, []*View{actionV, joinV, memoV})
	})

	t.Run("no view and no match", func(t *testing.T) {
		other := parse("select user_id from user_memo where dt='v3'")
		for _, views := range [][]*View{nil, {joinV, memoV, actionV}} {
			if n := assertMatchesReference(t, other, views); n != 0 {
				t.Fatalf("%d replacements in an unrelated query", n)
			}
		}
	})
}

// TestRewriteCostIndependentOfNonMatchingViews pins the property the
// per-view passes lacked: views that occur nowhere in the query add no
// work per plan node. Rewriting with one matching view allocates the same
// with and without 200 non-matching views beside it, apart from the
// fingerprint→view map, whose own cost is measured and subtracted.
func TestRewriteCostIndependentOfNonMatchingViews(t *testing.T) {
	cat, st := testEnv(t)
	mgr := NewManager(st)
	root, err := plan.Parse(exampleSQL, cat)
	if err != nil {
		t.Fatal(err)
	}
	var v *View
	for _, s := range plan.ExtractSubqueries(root) {
		if s.Root.Op == plan.OpJoin {
			if v, err = mgr.Materialize(s.Root); err != nil {
				t.Fatal(err)
			}
		}
	}
	crowd := []*View{v}
	for i := 0; i < 200; i++ {
		sub, err := plan.Parse(fmt.Sprintf("select user_id from user_memo where dt='nowhere%d'", i), cat)
		if err != nil {
			t.Fatal(err)
		}
		nv, err := mgr.Materialize(sub)
		if err != nil {
			t.Fatal(err)
		}
		crowd = append(crowd, nv)
	}
	if _, n := Rewrite(root, crowd); n != 1 {
		t.Fatalf("crowded rewrite made %d replacements, want 1", n)
	}
	alone := testing.AllocsPerRun(50, func() { Rewrite(root, []*View{v}) })
	crowded := testing.AllocsPerRun(50, func() { Rewrite(root, crowd) })
	index := func(views []*View) float64 {
		return testing.AllocsPerRun(50, func() {
			m := make(map[plan.Fingerprint]int, len(views))
			for i, w := range views {
				m[w.Fingerprint] = i
			}
		})
	}
	if extra := index(crowd) - index(crowd[:1]); crowded-alone != extra {
		t.Fatalf("Rewrite allocates %v with one view and %v with 200 non-matching ones beside it; the view map accounts for %v",
			alone, crowded, extra)
	}
}
