// Package catalog holds database schemas and table statistics.
//
// Everything in this package is engine-agnostic: the executor
// (internal/engine), the feature encoders (internal/featenc) and the
// workload generators (internal/workload) all consume the same Catalog.
package catalog

import (
	"fmt"
	"sort"
	"strings"
)

// ColType is the type of a column. The paper's feature extraction only
// distinguishes type names ("String", "Int", ...), so a small closed set
// suffices.
type ColType int

const (
	// TypeInt is a 64-bit signed integer column.
	TypeInt ColType = iota
	// TypeFloat is a 64-bit floating-point column.
	TypeFloat
	// TypeString is a variable-length string column.
	TypeString
)

// String returns the schema-encoding keyword for the type (as in Fig. 7(b)
// of the paper: "String", "Int", ...).
func (t ColType) String() string {
	switch t {
	case TypeInt:
		return "Int"
	case TypeFloat:
		return "Float"
	case TypeString:
		return "String"
	default:
		return fmt.Sprintf("ColType(%d)", int(t))
	}
}

// ByteWidth returns the nominal storage width in bytes used by the cost
// meter for sizing rows and materialized views.
func (t ColType) ByteWidth() int {
	switch t {
	case TypeInt, TypeFloat:
		return 8
	case TypeString:
		return 24 // average payload assumption for synthetic strings
	default:
		return 8
	}
}

// Column describes one column of a table.
type Column struct {
	Name string
	Type ColType
	// Distinct is the (approximate) number of distinct values; used by
	// the synthetic data generators and the traditional optimizer
	// baseline for selectivity estimation.
	Distinct int
}

// TableStats carries the numeric statistics that form the paper's
// "numerical features" (Section IV-A: number of tables, number of columns,
// size of records).
type TableStats struct {
	Rows     int
	Bytes    int64
	NumCols  int
	Distinct []int // per-column distinct counts, aligned with Columns
}

// Table is a table schema plus statistics.
type Table struct {
	Name    string
	Project string // owning project (Figure 1 groups queries by project)
	Columns []Column
	Stats   TableStats
}

// RowWidth is the nominal byte width of one row.
func (t *Table) RowWidth() int {
	w := 0
	for _, c := range t.Columns {
		w += c.Type.ByteWidth()
	}
	return w
}

// SchemaKeywords returns the keyword-set representation of the table used
// by the schema encoder (Fig. 7(b)): table name, column names, type names.
func (t *Table) SchemaKeywords() []string {
	kws := make([]string, 0, 1+2*len(t.Columns))
	kws = append(kws, t.Name)
	for _, c := range t.Columns {
		kws = append(kws, c.Name)
	}
	for _, c := range t.Columns {
		kws = append(kws, c.Type.String())
	}
	return kws
}

// Catalog is a set of tables, addressable by name.
type Catalog struct {
	tables map[string]*Table
	order  []string // creation order, for deterministic iteration
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Add registers a table. It returns an error if a table with the same name
// already exists or the schema is malformed.
func (c *Catalog) Add(t *Table) error {
	if t == nil || t.Name == "" {
		return fmt.Errorf("catalog: table must have a name")
	}
	if _, dup := c.tables[t.Name]; dup {
		return fmt.Errorf("catalog: duplicate table %q", t.Name)
	}
	seen := make(map[string]bool, len(t.Columns))
	if len(t.Columns) == 0 {
		return fmt.Errorf("catalog: table %q has no columns", t.Name)
	}
	for _, col := range t.Columns {
		if col.Name == "" {
			return fmt.Errorf("catalog: table %q has an unnamed column", t.Name)
		}
		if seen[col.Name] {
			return fmt.Errorf("catalog: table %q has duplicate column %q", t.Name, col.Name)
		}
		seen[col.Name] = true
	}
	c.tables[t.Name] = t
	c.order = append(c.order, t.Name)
	return nil
}

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*Table, bool) {
	t, ok := c.tables[name]
	return t, ok
}

// Tables returns all tables in creation order.
func (c *Catalog) Tables() []*Table {
	out := make([]*Table, 0, len(c.order))
	for _, name := range c.order {
		out = append(out, c.tables[name])
	}
	return out
}

// Len returns the number of tables.
func (c *Catalog) Len() int { return len(c.tables) }

// Projects returns the sorted distinct project names across all tables.
func (c *Catalog) Projects() []string {
	set := make(map[string]bool)
	for _, t := range c.tables {
		set[t.Project] = true
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Keywords returns the global keyword vocabulary of the catalog (table
// names, column names, type names), sorted. The keyword embedding shares
// one matrix across all features "as their keywords belong to the same
// database" (Section IV-B2); this is that shared vocabulary.
func (c *Catalog) Keywords() []string {
	set := make(map[string]bool)
	for _, t := range c.tables {
		for _, kw := range t.SchemaKeywords() {
			set[kw] = true
		}
	}
	out := make([]string, 0, len(set))
	for kw := range set {
		out = append(out, kw)
	}
	sort.Strings(out)
	return out
}

// String renders a compact schema listing, useful in logs and tests.
func (c *Catalog) String() string {
	var b strings.Builder
	for _, name := range c.order {
		t := c.tables[name]
		fmt.Fprintf(&b, "%s(", t.Name)
		for i, col := range t.Columns {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s %s", col.Name, col.Type)
		}
		fmt.Fprintf(&b, ") rows=%d\n", t.Stats.Rows)
	}
	return b.String()
}
