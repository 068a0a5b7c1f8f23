package catalog

import (
	"strings"
	"testing"
)

func sampleTable(name, project string) *Table {
	return &Table{
		Name:    name,
		Project: project,
		Columns: []Column{
			{Name: "id", Type: TypeInt, Distinct: 10},
			{Name: "label", Type: TypeString, Distinct: 5},
			{Name: "score", Type: TypeFloat, Distinct: 100},
		},
		Stats: TableStats{Rows: 42},
	}
}

func TestAddAndLookup(t *testing.T) {
	c := New()
	if err := c.Add(sampleTable("t1", "p1")); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(sampleTable("t1", "p1")); err == nil {
		t.Error("duplicate table should fail")
	}
	if err := c.Add(&Table{Name: ""}); err == nil {
		t.Error("unnamed table should fail")
	}
	if err := c.Add(&Table{Name: "empty"}); err == nil {
		t.Error("table without columns should fail")
	}
	if err := c.Add(&Table{Name: "dup", Columns: []Column{{Name: "a", Type: TypeInt}, {Name: "a", Type: TypeInt}}}); err == nil {
		t.Error("duplicate column should fail")
	}
	tab, ok := c.Table("t1")
	if !ok || tab.Name != "t1" {
		t.Fatal("lookup failed")
	}
	if _, ok := c.Table("nope"); ok {
		t.Error("lookup of missing table should fail")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestTableHelpers(t *testing.T) {
	tab := sampleTable("t", "p")
	// id(8) + label(24) + score(8)
	if tab.RowWidth() != 40 {
		t.Errorf("RowWidth = %d, want 40", tab.RowWidth())
	}
	kws := tab.SchemaKeywords()
	want := []string{"t", "id", "label", "score", "Int", "String", "Float"}
	if len(kws) != len(want) {
		t.Fatalf("SchemaKeywords = %v", kws)
	}
	for i := range want {
		if kws[i] != want[i] {
			t.Errorf("keyword %d = %q, want %q", i, kws[i], want[i])
		}
	}
}

func TestProjectsAndKeywords(t *testing.T) {
	c := New()
	if err := c.Add(sampleTable("a", "p2")); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(sampleTable("b", "p1")); err != nil {
		t.Fatal(err)
	}
	projects := c.Projects()
	if len(projects) != 2 || projects[0] != "p1" || projects[1] != "p2" {
		t.Errorf("Projects = %v", projects)
	}
	kws := c.Keywords()
	for _, want := range []string{"a", "b", "id", "label", "score", "Int", "String", "Float"} {
		found := false
		for _, k := range kws {
			if k == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Keywords missing %q", want)
		}
	}
	// Sorted and deduplicated.
	for i := 1; i < len(kws); i++ {
		if kws[i-1] >= kws[i] {
			t.Errorf("Keywords not strictly sorted: %q >= %q", kws[i-1], kws[i])
		}
	}
}

func TestCatalogString(t *testing.T) {
	c := New()
	if err := c.Add(sampleTable("t1", "p")); err != nil {
		t.Fatal(err)
	}
	s := c.String()
	if !strings.Contains(s, "t1(id Int, label String, score Float) rows=42") {
		t.Errorf("String() = %q", s)
	}
}

func TestColTypeByteWidth(t *testing.T) {
	if TypeInt.ByteWidth() != 8 || TypeFloat.ByteWidth() != 8 || TypeString.ByteWidth() != 24 {
		t.Error("byte widths changed")
	}
}
