package workload

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleSchema = `{
  "tables": [
    {"name": "sales", "project": "p1", "rows": 500, "columns": [
      {"name": "id", "type": "int", "distinct": 500},
      {"name": "region", "type": "string", "distinct": 5},
      {"name": "amount", "type": "float", "distinct": 100}
    ]},
    {"name": "regions", "project": "p1", "rows": 5, "columns": [
      {"name": "name", "type": "string", "distinct": 5},
      {"name": "zone", "type": "int", "distinct": 2}
    ]}
  ]
}`

const sampleQueries = `
-- project: reporting
select region, count(*) as n from sales where amount < 50.5 group by region;

-- a comment that is not a directive
select s.region, sum(s.amount) as total
from ( select region, amount from sales where amount < 50.5 ) s
group by s.region;

-- project: ops
select r.zone, count(*) as n
from sales inner join regions r on sales.region = r.name
group by r.zone;
`

func TestLoadCatalog(t *testing.T) {
	cat, err := LoadCatalog(strings.NewReader(sampleSchema))
	if err != nil {
		t.Fatal(err)
	}
	if cat.Len() != 2 {
		t.Fatalf("tables = %d, want 2", cat.Len())
	}
	sales, ok := cat.Table("sales")
	if !ok || sales.Stats.Rows != 500 || sales.Project != "p1" {
		t.Errorf("sales = %+v", sales)
	}
	if col := sales.Columns[2]; col.Name != "amount" || col.Distinct != 100 {
		t.Errorf("amount column = %+v", col)
	}
}

func TestLoadCatalogErrors(t *testing.T) {
	if _, err := LoadCatalog(strings.NewReader("{bad")); err == nil {
		t.Error("invalid JSON should fail")
	}
	if _, err := LoadCatalog(strings.NewReader(`{"tables": []}`)); err == nil {
		t.Error("empty schema should fail")
	}
	bad := `{"tables": [{"name": "t", "columns": [{"name": "a", "type": "blob"}]}]}`
	if _, err := LoadCatalog(strings.NewReader(bad)); err == nil {
		t.Error("unknown type should fail")
	}
}

func TestLoadQueries(t *testing.T) {
	cat, err := LoadCatalog(strings.NewReader(sampleSchema))
	if err != nil {
		t.Fatal(err)
	}
	w, err := LoadQueries(strings.NewReader(sampleQueries), cat, "custom")
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Queries) != 3 {
		t.Fatalf("queries = %d, want 3", len(w.Queries))
	}
	if w.Queries[0].Project != "reporting" || w.Queries[1].Project != "reporting" {
		t.Errorf("projects = %s, %s", w.Queries[0].Project, w.Queries[1].Project)
	}
	if w.Queries[2].Project != "ops" {
		t.Errorf("third project = %s", w.Queries[2].Project)
	}
	for _, q := range w.Queries {
		if q.Plan == nil {
			t.Errorf("query %s has no plan", q.ID)
		}
	}
	// The loaded workload executes end to end.
	st := w.Populate()
	for _, name := range []string{"sales", "regions"} {
		if _, ok := st.Get(name); !ok {
			t.Fatalf("table %s not populated", name)
		}
	}
}

func TestLoadQueriesErrors(t *testing.T) {
	cat, err := LoadCatalog(strings.NewReader(sampleSchema))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadQueries(strings.NewReader("-- only comments\n"), cat, "x"); err == nil {
		t.Error("empty query file should fail")
	}
	if _, err := LoadQueries(strings.NewReader("select nope from sales;"), cat, "x"); err == nil {
		t.Error("unresolvable query should fail")
	}
	if _, err := LoadQueries(strings.NewReader("select broken from;"), cat, "x"); err == nil {
		t.Error("syntax error should fail")
	}
}

// TestOpen covers the file-backed half of Open (the built-in names and
// the error strings are pinned where the flags live, cmd/viewgen and
// cmd/viewserverd).
func TestOpen(t *testing.T) {
	dir := t.TempDir()
	schema, queries := filepath.Join(dir, "schema.json"), filepath.Join(dir, "queries.sql")
	if err := os.WriteFile(schema, []byte(sampleSchema), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(queries, []byte(sampleQueries), 0o644); err != nil {
		t.Fatal(err)
	}
	// The paths win over the built-in name.
	w, err := Open("job", schema, queries)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "custom" || len(w.Queries) != 3 || w.Cat.Len() != 2 {
		t.Errorf("Open = %q, %d queries, %d tables; want custom, 3, 2", w.Name, len(w.Queries), w.Cat.Len())
	}
	if _, err := Open("", schema, filepath.Join(dir, "missing.sql")); err == nil {
		t.Error("a missing queries file should fail")
	}
}
