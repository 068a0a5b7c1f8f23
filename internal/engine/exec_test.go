package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"autoview/internal/catalog"
	"autoview/internal/plan"
	"autoview/internal/storage"
)

// fixture builds a two-table catalog and hand-written rows so results are
// exactly checkable.
func fixture(t *testing.T) (*catalog.Catalog, *storage.Store) {
	t.Helper()
	cat := catalog.New()
	users := &catalog.Table{
		Name: "users",
		Columns: []catalog.Column{
			{Name: "id", Type: catalog.TypeInt, Distinct: 10},
			{Name: "city", Type: catalog.TypeString, Distinct: 3},
		},
		Stats: catalog.TableStats{Rows: 4},
	}
	orders := &catalog.Table{
		Name: "orders",
		Columns: []catalog.Column{
			{Name: "uid", Type: catalog.TypeInt, Distinct: 10},
			{Name: "amount", Type: catalog.TypeFloat, Distinct: 100},
		},
		Stats: catalog.TableStats{Rows: 6},
	}
	if err := cat.Add(users); err != nil {
		t.Fatal(err)
	}
	if err := cat.Add(orders); err != nil {
		t.Fatal(err)
	}
	st := storage.NewStore()
	ut := storage.NewTable(users)
	for _, r := range []storage.Row{
		{storage.Int(1), storage.Str("bj")},
		{storage.Int(2), storage.Str("sh")},
		{storage.Int(3), storage.Str("bj")},
		{storage.Int(4), storage.Str("gz")},
	} {
		if err := ut.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	ot := storage.NewTable(orders)
	for _, r := range []storage.Row{
		{storage.Int(1), storage.Float(10)},
		{storage.Int(1), storage.Float(20)},
		{storage.Int(2), storage.Float(5)},
		{storage.Int(3), storage.Float(7)},
		{storage.Int(3), storage.Float(3)},
		{storage.Int(9), storage.Float(99)},
	} {
		if err := ot.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	st.Put(ut)
	st.Put(ot)
	return cat, st
}

func run(t *testing.T, cat *catalog.Catalog, st *storage.Store, sql string) (*Result, Usage) {
	t.Helper()
	n, err := plan.Parse(sql, cat)
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	res, u, err := New(st).Execute(n)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return res, u
}

func TestScanFilterProject(t *testing.T) {
	cat, st := fixture(t)
	res, u := run(t, cat, st, "select city from users where id >= 2")
	if len(res.Rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(res.Rows))
	}
	want := []string{"sh", "bj", "gz"}
	for i, r := range res.Rows {
		if r[0].S != want[i] {
			t.Errorf("row %d = %v, want %s", i, r[0], want[i])
		}
	}
	if u.CPUOps == 0 || u.OutRows != 3 || u.OutBytes == 0 {
		t.Errorf("usage not metered: %+v", u)
	}
}

func TestInnerJoin(t *testing.T) {
	cat, st := fixture(t)
	res, _ := run(t, cat, st, "select u.city, o.amount from users u inner join orders o on u.id = o.uid")
	if len(res.Rows) != 5 {
		t.Fatalf("want 5 joined rows, got %d", len(res.Rows))
	}
	var total float64
	for _, r := range res.Rows {
		total += r[1].AsFloat()
	}
	if total != 45 {
		t.Errorf("sum of joined amounts = %v, want 45", total)
	}
}

func TestLeftJoin(t *testing.T) {
	cat, st := fixture(t)
	res, _ := run(t, cat, st, "select u.id, o.amount from users u left join orders o on u.id = o.uid")
	// id=4 has no orders: padded row survives; total rows = 5 matches + 1 pad.
	if len(res.Rows) != 6 {
		t.Fatalf("want 6 rows, got %d", len(res.Rows))
	}
	padded := 0
	for _, r := range res.Rows {
		if r[0].I == 4 {
			padded++
			if r[1].AsFloat() != 0 {
				t.Errorf("padded amount = %v, want 0", r[1])
			}
		}
	}
	if padded != 1 {
		t.Errorf("want exactly one padded row, got %d", padded)
	}
}

func TestAggregate(t *testing.T) {
	cat, st := fixture(t)
	res, _ := run(t, cat, st,
		"select u.city, count(*) as n, sum(o.amount) as s, avg(o.amount) as m, min(o.amount) as lo, max(o.amount) as hi "+
			"from users u inner join orders o on u.id = o.uid group by u.city")
	if len(res.Rows) != 2 {
		t.Fatalf("want 2 groups, got %d", len(res.Rows))
	}
	byCity := map[string]storage.Row{}
	for _, r := range res.Rows {
		byCity[r[0].S] = r
	}
	bj := byCity["bj"]
	if bj == nil {
		t.Fatal("missing group bj")
	}
	if bj[1].I != 4 || bj[2].AsFloat() != 40 || bj[3].F != 10 || bj[4].AsFloat() != 3 || bj[5].AsFloat() != 20 {
		t.Errorf("bj aggregates wrong: %v", bj)
	}
	sh := byCity["sh"]
	if sh == nil || sh[1].I != 1 || sh[2].AsFloat() != 5 {
		t.Errorf("sh aggregates wrong: %v", sh)
	}
}

func TestGlobalAggregateOnEmptyInput(t *testing.T) {
	cat, st := fixture(t)
	res, _ := run(t, cat, st, "select count(*) as n from users where id > 100")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 0 {
		t.Fatalf("global count over empty input = %v, want one row of 0", res.Rows)
	}
}

func TestPaperExampleEndToEnd(t *testing.T) {
	// The full Figure 2 query over generated data must execute and the
	// join+aggregate costs must exceed the subquery costs.
	cat := catalog.New()
	for _, tb := range []*catalog.Table{
		{
			Name: "user_memo",
			Columns: []catalog.Column{
				{Name: "user_id", Type: catalog.TypeInt, Distinct: 50},
				{Name: "memo", Type: catalog.TypeString, Distinct: 20},
				{Name: "memo_type", Type: catalog.TypeString, Distinct: 4},
				{Name: "dt", Type: catalog.TypeString, Distinct: 5},
			},
			Stats: catalog.TableStats{Rows: 500},
		},
		{
			Name: "user_action",
			Columns: []catalog.Column{
				{Name: "user_id", Type: catalog.TypeInt, Distinct: 50},
				{Name: "action", Type: catalog.TypeString, Distinct: 10},
				{Name: "type", Type: catalog.TypeInt, Distinct: 3},
				{Name: "dt", Type: catalog.TypeString, Distinct: 5},
			},
			Stats: catalog.TableStats{Rows: 800},
		},
	} {
		if err := cat.Add(tb); err != nil {
			t.Fatal(err)
		}
	}
	st := storage.Populate(cat, rand.New(rand.NewSource(7)))
	sql := `select t1.user_id, count(*) as cnt
		from ( select user_id, memo from user_memo where dt='v1' and memo_type = 'v2' ) t1
		inner join ( select user_id, action from user_action where type = 1 and dt='v1' ) t2
		on t1.user_id = t2.user_id group by t1.user_id`
	root, err := plan.Parse(sql, cat)
	if err != nil {
		t.Fatal(err)
	}
	ex := New(st)
	_, uq, err := ex.Execute(root)
	if err != nil {
		t.Fatal(err)
	}
	subs := plan.ExtractSubqueries(root)
	if len(subs) != 3 {
		t.Fatalf("want 3 subqueries, got %d", len(subs))
	}
	for _, s := range subs {
		us, err := ex.Cost(s.Root)
		if err != nil {
			t.Fatal(err)
		}
		if us.CPUOps >= uq.CPUOps {
			t.Errorf("subquery cost %d >= query cost %d", us.CPUOps, uq.CPUOps)
		}
	}
}

func TestPricingModel(t *testing.T) {
	p := DefaultPricing()
	u := Usage{CPUOps: 2e6, PeakBytes: 5e8, OutBytes: 1e9}
	if got := u.CPUMinutes(p); got != 2 {
		t.Errorf("CPUMinutes = %v, want 2", got)
	}
	if got := u.MemGBMinutes(p); got != 1 {
		t.Errorf("MemGBMinutes = %v, want 1", got)
	}
	wantCost := 0.1*2 + 0.001*1
	if got := u.Cost(p); got != wantCost {
		t.Errorf("Cost = %v, want %v", got, wantCost)
	}
	if got := u.StorageCost(p); got != 1.67e-5 {
		t.Errorf("StorageCost = %v, want 1.67e-5", got)
	}
	if got := u.TotalViewOverhead(p); got != wantCost+1.67e-5 {
		t.Errorf("TotalViewOverhead = %v", got)
	}
}

func TestUsageAdd(t *testing.T) {
	a := Usage{CPUOps: 10, PeakBytes: 100, OutRows: 1, OutBytes: 8}
	b := Usage{CPUOps: 5, PeakBytes: 50, OutRows: 2, OutBytes: 16}
	a.Add(b)
	if a.CPUOps != 15 || a.PeakBytes != 100 || a.OutRows != 2 || a.OutBytes != 16 {
		t.Errorf("Add result = %+v", a)
	}
}

func TestExecuteMissingTable(t *testing.T) {
	cat, _ := fixture(t)
	n, err := plan.Parse("select id from users", cat)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = New(storage.NewStore()).Execute(n)
	if err == nil {
		t.Fatal("want error for missing table")
	}
}

func TestMeterPeakTracksHashTables(t *testing.T) {
	cat, st := fixture(t)
	_, uScan := run(t, cat, st, "select id from users")
	_, uJoin := run(t, cat, st, "select u.id from users u inner join orders o on u.id = o.uid")
	if uJoin.PeakBytes <= uScan.PeakBytes {
		t.Errorf("join peak %d should exceed scan peak %d", uJoin.PeakBytes, uScan.PeakBytes)
	}
}

func TestHavingFiltersGroups(t *testing.T) {
	cat, st := fixture(t)
	res, _ := run(t, cat, st,
		"select u.city, count(*) as n from users u inner join orders o on u.id = o.uid group by u.city having n > 1")
	// Only bj has more than one order-bearing user row (4 rows); sh has 1.
	if len(res.Rows) != 1 {
		t.Fatalf("want 1 surviving group, got %d", len(res.Rows))
	}
	if res.Rows[0][0].S != "bj" || res.Rows[0][1].I != 4 {
		t.Errorf("surviving group = %v", res.Rows[0])
	}
}

func BenchmarkExecutePaperQuery(b *testing.B) {
	cat := catalog.New()
	for _, tb := range []*catalog.Table{
		{
			Name: "user_memo",
			Columns: []catalog.Column{
				{Name: "user_id", Type: catalog.TypeInt, Distinct: 500},
				{Name: "memo", Type: catalog.TypeString, Distinct: 50},
				{Name: "memo_type", Type: catalog.TypeString, Distinct: 4},
				{Name: "dt", Type: catalog.TypeString, Distinct: 8},
			},
			Stats: catalog.TableStats{Rows: 5000},
		},
		{
			Name: "user_action",
			Columns: []catalog.Column{
				{Name: "user_id", Type: catalog.TypeInt, Distinct: 500},
				{Name: "action", Type: catalog.TypeString, Distinct: 10},
				{Name: "type", Type: catalog.TypeInt, Distinct: 3},
				{Name: "dt", Type: catalog.TypeString, Distinct: 8},
			},
			Stats: catalog.TableStats{Rows: 8000},
		},
	} {
		if err := cat.Add(tb); err != nil {
			b.Fatal(err)
		}
	}
	st := storage.Populate(cat, rand.New(rand.NewSource(7)))
	sql := `select t1.user_id, count(*) as cnt
		from ( select user_id, memo from user_memo where dt='v1' and memo_type = 'v2' ) t1
		inner join ( select user_id, action from user_action where type = 1 and dt='v1' ) t2
		on t1.user_id = t2.user_id group by t1.user_id`
	n, err := plan.Parse(sql, cat)
	if err != nil {
		b.Fatal(err)
	}
	ex := New(st)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Cost(n); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAppendKeyMatchesSprintf pins the hash key's bytes to the
// fmt.Sprintf("n:%g") rendering it replaced: a hash table is metered
// by its keys' lengths, so a byte of difference would move a cost.
func TestAppendKeyMatchesSprintf(t *testing.T) {
	vals := []storage.Value{
		storage.Str(""), storage.Str("a|b"), storage.Str("s:x"),
		storage.Int(0), storage.Int(-1), storage.Int(7), storage.Int(1010),
		storage.Int(math.MaxInt64), storage.Int(math.MinInt64), storage.Int(1 << 53), storage.Int(1<<53 + 1),
		storage.Float(0), storage.Float(math.Copysign(0, -1)), storage.Float(1.5), storage.Float(0.1),
		storage.Float(200.25), storage.Float(1e20), storage.Float(1e21), storage.Float(123456789),
		storage.Float(1e-4), storage.Float(1e-5), storage.Float(math.SmallestNonzeroFloat64),
		storage.Float(math.MaxFloat64), storage.Float(math.Inf(1)), storage.Float(math.Inf(-1)),
		storage.Float(math.NaN()),
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		vals = append(vals, storage.Float(math.Float64frombits(rng.Uint64())), storage.Int(int64(rng.Uint64())))
	}
	want := func(row storage.Row, cols []int) string {
		var b strings.Builder
		for _, c := range cols {
			if v := row[c]; v.Kind == catalog.TypeString {
				b.WriteString("s:" + v.S)
			} else {
				fmt.Fprintf(&b, "n:%g", v.AsFloat())
			}
			b.WriteByte('|')
		}
		return b.String()
	}
	var buf []byte
	for i, v := range vals {
		row := storage.Row{v, vals[(i+1)%len(vals)]}
		for _, cols := range [][]int{{0}, {0, 1}, {1, 0}, nil} {
			buf = appendKey(buf[:0], row, cols)
			if got, w := string(buf), want(row, cols); got != w {
				t.Fatalf("key of %v over %v = %q, fmt renders %q", row, cols, got, w)
			}
		}
	}
}
