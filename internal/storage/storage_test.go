package storage

import (
	"math/rand"
	"testing"
	"testing/quick"

	"autoview/internal/catalog"
)

func TestValueConstructorsAndString(t *testing.T) {
	if Int(3).String() != "3" {
		t.Error("Int render")
	}
	if Float(2.5).String() != "2.5" {
		t.Error("Float render")
	}
	if Str("x").String() != "'x'" {
		t.Error("Str render")
	}
}

func TestValueEqualCoercion(t *testing.T) {
	if !Int(3).Equal(Float(3)) {
		t.Error("Int(3) should equal Float(3)")
	}
	if Int(3).Equal(Str("3")) {
		t.Error("Int(3) should not equal Str(\"3\")")
	}
	if !Str("a").Equal(Str("a")) || Str("a").Equal(Str("b")) {
		t.Error("string equality broken")
	}
}

func TestValueCompareTotalOrder(t *testing.T) {
	vals := []Value{Int(-1), Int(0), Float(0.5), Int(2), Str(""), Str("a"), Str("b")}
	for i := range vals {
		for j := range vals {
			got := vals[i].Compare(vals[j])
			switch {
			case i < j && got >= 0:
				t.Errorf("Compare(%v,%v)=%d, want <0", vals[i], vals[j], got)
			case i > j && got <= 0:
				t.Errorf("Compare(%v,%v)=%d, want >0", vals[i], vals[j], got)
			case i == j && got != 0:
				t.Errorf("Compare(%v,%v)=%d, want 0", vals[i], vals[j], got)
			}
		}
	}
}

// Property: Compare is antisymmetric and consistent with Equal for numeric
// values.
func TestValueCompareProperty(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		if va.Compare(vb) != -vb.Compare(va) {
			return false
		}
		return (va.Compare(vb) == 0) == va.Equal(vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableAppendArity(t *testing.T) {
	meta := &catalog.Table{
		Name:    "t",
		Columns: []catalog.Column{{Name: "a", Type: catalog.TypeInt, Distinct: 2}},
	}
	tb := NewTable(meta)
	if err := tb.Append(Row{Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Append(Row{Int(1), Int(2)}); err == nil {
		t.Error("want arity error")
	}
}

// populateOne populates a one-table catalog holding meta and returns the
// table.
func populateOne(t *testing.T, meta *catalog.Table, rng *rand.Rand) *Table {
	t.Helper()
	cat := catalog.New()
	if err := cat.Add(meta); err != nil {
		t.Fatal(err)
	}
	tb, _ := Populate(cat, rng).Get(meta.Name)
	return tb
}

func TestGenerateDeterministicAndBounded(t *testing.T) {
	meta := func() *catalog.Table {
		return &catalog.Table{
			Name: "g",
			Columns: []catalog.Column{
				{Name: "i", Type: catalog.TypeInt, Distinct: 5},
				{Name: "f", Type: catalog.TypeFloat, Distinct: 3},
				{Name: "s", Type: catalog.TypeString, Distinct: 4},
			},
			Stats: catalog.TableStats{Rows: 200},
		}
	}
	t1 := populateOne(t, meta(), rand.New(rand.NewSource(42)))
	t2 := populateOne(t, meta(), rand.New(rand.NewSource(42)))
	if len(t1.Rows) != 200 || len(t2.Rows) != 200 {
		t.Fatalf("row counts: %d, %d", len(t1.Rows), len(t2.Rows))
	}
	for i := range t1.Rows {
		for j := range t1.Rows[i] {
			if !t1.Rows[i][j].Equal(t2.Rows[i][j]) {
				t.Fatalf("generation not deterministic at row %d col %d", i, j)
			}
		}
	}
	// Distinct bounds respected.
	seen := map[int64]bool{}
	for _, r := range t1.Rows {
		v := r[0].I
		if v < 0 || v >= 5 {
			t.Fatalf("int value %d outside [0,5)", v)
		}
		seen[v] = true
	}
	if len(seen) < 2 {
		t.Error("suspiciously few distinct values")
	}
	if t1.Meta.Stats.Bytes != t1.Bytes() {
		t.Error("Populate should refresh Stats.Bytes")
	}
}

func TestStorePutGetDrop(t *testing.T) {
	meta := &catalog.Table{Name: "t", Columns: []catalog.Column{{Name: "a", Type: catalog.TypeInt, Distinct: 1}}}
	s := NewStore()
	s.Put(NewTable(meta))
	if _, ok := s.Get("t"); !ok {
		t.Fatal("Get after Put failed")
	}
	if len(s.tables) != 1 {
		t.Errorf("store has %d tables, want 1", len(s.tables))
	}
	s.Drop("t")
	if _, ok := s.Get("t"); ok {
		t.Fatal("Get after Drop should fail")
	}
}

func TestPopulateCoversCatalog(t *testing.T) {
	cat := catalog.New()
	for _, name := range []string{"a", "b", "c"} {
		err := cat.Add(&catalog.Table{
			Name:    name,
			Columns: []catalog.Column{{Name: "x", Type: catalog.TypeInt, Distinct: 3}},
			Stats:   catalog.TableStats{Rows: 10},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	st := Populate(cat, rand.New(rand.NewSource(1)))
	if len(st.tables) != 3 {
		t.Fatalf("store has %d tables, want 3", len(st.tables))
	}
	for _, name := range []string{"a", "b", "c"} {
		tb, ok := st.Get(name)
		if !ok || len(tb.Rows) != 10 {
			t.Errorf("table %s missing or wrong size", name)
		}
	}
}

func TestValueWidth(t *testing.T) {
	if Int(1).Width() != 8 || Float(1).Width() != 8 {
		t.Error("numeric widths should be 8")
	}
	if Str("abc").Width() != 19 { // 16 + len
		t.Errorf("string width = %d, want 19", Str("abc").Width())
	}
}

func TestRowWidthSumsValues(t *testing.T) {
	r := Row{Int(1), Str("ab")}
	if r.Width() != 8+18 {
		t.Errorf("row width = %d", r.Width())
	}
}

func TestGenerateCorrelationKeepsBounds(t *testing.T) {
	// Correlated draws must still respect per-column distinct bounds.
	meta := &catalog.Table{
		Name: "c",
		Columns: []catalog.Column{
			{Name: "a", Type: catalog.TypeInt, Distinct: 7},
			{Name: "b", Type: catalog.TypeInt, Distinct: 3},
		},
		Stats: catalog.TableStats{Rows: 500},
	}
	t1 := populateOne(t, meta, rand.New(rand.NewSource(5)))
	for _, r := range t1.Rows {
		if r[0].I < 0 || r[0].I >= 7 || r[1].I < 0 || r[1].I >= 3 {
			t.Fatalf("out-of-bound values: %v", r)
		}
	}
}

// TestTableBytesFollowsState: Bytes is summed once per table state and
// kept, but an Append or a replaced Rows is a new state, and scans on
// several goroutines may ask for a state's size at once.
func TestTableBytesFollowsState(t *testing.T) {
	meta := &catalog.Table{Name: "t", Columns: []catalog.Column{
		{Name: "a", Type: catalog.TypeInt}, {Name: "s", Type: catalog.TypeString}}}
	tbl := NewTable(meta)
	walk := func() int64 {
		var n int64
		for _, r := range tbl.Rows {
			n += int64(r.Width())
		}
		return n
	}
	check := func(ctx string) {
		t.Helper()
		if got, want := tbl.Bytes(), walk(); got != want {
			t.Fatalf("%s: Bytes %d, row walk %d", ctx, got, want)
		}
	}
	check("empty")
	for i := 0; i < 5; i++ {
		if err := tbl.Append(Row{Int(int64(i)), Str("abc"[:i%4])}); err != nil {
			t.Fatal(err)
		}
		check("after an append")
	}
	tbl.Rows = tbl.Rows[:2]
	check("after a truncation")
	tbl.Rows = []Row{{Int(1), Str("a longer string")}}
	check("after a replacement")
	tbl.Rows = append([]Row{{Int(7), Str("")}}, tbl.Rows...) // a state no Bytes call has summed yet
	want := walk()
	done := make(chan int64)
	for g := 0; g < 8; g++ {
		go func() { done <- tbl.Bytes() }()
	}
	for g := 0; g < 8; g++ {
		if got := <-done; got != want {
			t.Errorf("concurrent Bytes %d, want %d", got, want)
		}
	}
}
