package storage

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync/atomic"

	"autoview/internal/catalog"
	"autoview/internal/nn"
	"autoview/internal/obs"
)

// Table is an in-memory, row-oriented relation bound to a catalog schema.
// Rows are appended or replaced wholesale, never edited in place: Bytes
// keeps its sum for as long as Rows keeps its start and length.
type Table struct {
	Meta *catalog.Table
	Rows []Row

	size atomic.Pointer[tableSize] // Bytes of the Rows it was summed over
}

// tableSize is one table state's byte size.
type tableSize struct {
	rows  []Row
	bytes int64
}

// NewTable allocates an empty table for the schema.
func NewTable(meta *catalog.Table) *Table {
	return &Table{Meta: meta}
}

// Append adds a row after validating its arity.
func (t *Table) Append(r Row) error {
	if len(r) != len(t.Meta.Columns) {
		return fmt.Errorf("storage: table %q expects %d columns, got %d",
			t.Meta.Name, len(t.Meta.Columns), len(r))
	}
	t.Rows = append(t.Rows, r)
	return nil
}

// Bytes is the nominal byte size of the table contents, summed once per
// table state: a scan reads it instead of walking every row. Concurrent
// scans of one state may both sum it; they store the same value.
func (t *Table) Bytes() int64 {
	if s := t.size.Load(); s != nil && len(s.rows) == len(t.Rows) &&
		(len(t.Rows) == 0 || &s.rows[0] == &t.Rows[0]) {
		return s.bytes
	}
	var total int64
	for _, r := range t.Rows {
		total += int64(r.Width())
	}
	t.size.Store(&tableSize{rows: t.Rows, bytes: total})
	return total
}

// Store maps table names to their contents. It is the executor's data
// source.
type Store struct {
	tables map[string]*Table
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{tables: make(map[string]*Table)} }

// Put registers a table, replacing any previous contents for that name.
func (s *Store) Put(t *Table) { s.tables[t.Meta.Name] = t }

// Get fetches a table by name.
func (s *Store) Get(name string) (*Table, bool) {
	t, ok := s.tables[name]
	return t, ok
}

// Drop removes a table if present.
func (s *Store) Drop(name string) { delete(s.tables, name) }

// Populate generates data for every table in the catalog and installs it
// in a fresh store. Integer columns draw from [0, distinct); float
// columns draw distinct bucketed values; string columns draw from a pool
// of "v<k>" tokens. Adjacent columns are correlated for about half the
// rows — real analytical data is heavily correlated, which is exactly
// what breaks classical optimizers' independence assumptions (and what
// the learned cost models absorb). The same seed always yields the same
// data.
//
// Population runs in two steps. One goroutine takes every table's draws
// from rng, in catalog order, into a pointer-free slab per table (draw);
// as each table's slab lands, one of GOMAXPROCS workers builds its rows
// from it (build), so the build of one table overlaps the draw of the
// next and no row depends on which worker built it. The catalog's
// statistics are refreshed once every table is built.
func Populate(cat *catalog.Catalog, rng *rand.Rand) *Store {
	defer obs.StartSpan("storage.populate")()
	metas := cat.Tables()
	draws := make([][]int, len(metas))
	drawn := make([]chan struct{}, len(metas))
	for i := range drawn {
		drawn[i] = make(chan struct{})
	}
	go func() {
		for i, meta := range metas {
			draws[i] = draw(meta, rng)
			close(drawn[i])
		}
	}()
	tables := make([]*Table, len(metas))
	nn.ParallelFor(len(metas), runtime.GOMAXPROCS(0), func(i int) {
		<-drawn[i]
		tables[i] = build(metas[i], draws[i])
		draws[i] = nil
	})
	s := NewStore()
	for _, t := range tables {
		s.Put(t)
		// Refresh the statistics the generators promised.
		meta := t.Meta
		meta.Stats.Bytes = t.Bytes()
		meta.Stats.NumCols = len(meta.Columns)
		if meta.Stats.Distinct == nil {
			meta.Stats.Distinct = make([]int, len(meta.Columns))
			for j, col := range meta.Columns {
				meta.Stats.Distinct[j] = col.Distinct
			}
		}
	}
	return s
}

// draw takes a table's value draws from rng, row-major. A row's first
// column draws k in [0, distinct). Each later column flips a coin: on
// heads it draws noise r in [0, 3), stored as −1−r, from which build
// derives k from its left neighbour's k; on tails it draws k as the
// first column does.
func draw(meta *catalog.Table, rng *rand.Rand) []int {
	n, w := meta.Stats.Rows, len(meta.Columns)
	ks := make([]int, n*w)
	for i := 0; i < n; i++ {
		row := ks[i*w : (i+1)*w]
		for j, col := range meta.Columns {
			if j > 0 && rng.Float64() < 0.5 {
				row[j] = -1 - rng.Intn(3)
			} else {
				row[j] = rng.Intn(max(col.Distinct, 1))
			}
		}
	}
	return ks
}

// build renders a table's draws as rows and sums their byte size. The
// rows are carved from one slab of values, and each string column
// renders each of its tokens once and shares it among the rows that
// draw it.
func build(meta *catalog.Table, ks []int) *Table {
	t := NewTable(meta)
	n, w := meta.Stats.Rows, len(meta.Columns)
	vals := make([]Value, n*w)
	t.Rows = make([]Row, n)
	tokens := make([][]string, w) // per string column, "v<k>" by k < its rows, rendered on first draw
	for j, col := range meta.Columns {
		if col.Type == catalog.TypeString {
			tokens[j] = make([]string, min(max(col.Distinct, 1), n))
		}
	}
	var bytes int64
	for i := range t.Rows {
		row := Row(vals[i*w : (i+1)*w : (i+1)*w])
		prev := 0
		for j, col := range meta.Columns {
			k := ks[i*w+j]
			if k < 0 {
				// Correlated draw: derived from the previous
				// column's value with small noise.
				k = (prev*7 - 1 - k) % max(col.Distinct, 1)
			}
			prev = k
			switch col.Type {
			case catalog.TypeInt:
				row[j] = Int(int64(k))
			case catalog.TypeFloat:
				row[j] = Float(float64(k) + 0.5)
			case catalog.TypeString:
				if k >= len(tokens[j]) {
					row[j] = Str("v" + strconv.Itoa(k))
				} else {
					if tokens[j][k] == "" {
						tokens[j][k] = "v" + strconv.Itoa(k)
					}
					row[j] = Str(tokens[j][k])
				}
			}
			bytes += int64(row[j].Width())
		}
		t.Rows[i] = row
	}
	t.size.Store(&tableSize{rows: t.Rows, bytes: bytes})
	return t
}
