package engine

import (
	"fmt"
	"math"
	"strconv"
	"sync"

	"autoview/internal/catalog"
	"autoview/internal/obs"
	"autoview/internal/plan"
	"autoview/internal/storage"
)

// Executor metrics: every plan execution (including the cost measurements
// that feed model training) counts here; the engine.exec span times them.
var (
	obsExecCount = obs.Default.Counter("engine.exec.count", "plan executions (including cost measurements)")
	obsExecRows  = obs.Default.Counter("engine.exec.rows", "result rows produced by plan executions")
)

// Result is a fully materialized relation produced by an execution.
type Result struct {
	Schema []plan.ColInfo
	Rows   []storage.Row
	bytes  int64 // Σ Rows[i].Width(), summed as the operator built Rows
}

// Bytes is the nominal byte size of the result: the sum of its rows'
// widths, taken from the table for a scan and summed row by row while
// any other operator built its output, so it costs nothing to read.
func (r *Result) Bytes() int64 { return r.bytes }

// Executor evaluates logical plans against a store, metering cost.
type Executor struct {
	Store *storage.Store

	arenas sync.Pool // *arena: Trace's, each reused by a later Trace
}

// arena holds the operators' output of one traced execution. A Trace's
// rows are never read after it returns, so the next Trace reuses the
// memory instead of allocating it again; a nil *arena allocates, since
// Execute's results are kept.
type arena struct {
	vals []storage.Value
	rows []storage.Row
}

// values returns n zero values.
func (a *arena) values(n int) []storage.Value {
	if a == nil {
		return make([]storage.Value, n)
	}
	v := take(&a.vals, n)
	clear(v)
	return v
}

// rowSlice returns an empty row slice of capacity n.
func (a *arena) rowSlice(n int) []storage.Row {
	if a == nil {
		return make([]storage.Row, 0, n)
	}
	return take(&a.rows, n)[:0:n]
}

// take extends *buf by n elements and returns them; a full buffer moves
// to a new array, and what it handed out earlier stays where it was.
func take[T any](buf *[]T, n int) []T {
	if len(*buf)+n > cap(*buf) {
		*buf = make([]T, 0, max(2*cap(*buf), n))
	}
	*buf = (*buf)[:len(*buf)+n]
	return (*buf)[len(*buf)-n:]
}

// New returns an executor over the store.
func New(store *storage.Store) *Executor { return &Executor{Store: store} }

// Execute runs the plan and returns its result plus metered usage.
func (e *Executor) Execute(n *plan.Node) (*Result, Usage, error) {
	res, tr, err := e.execute(n, nil)
	if err != nil {
		return nil, Usage{}, err
	}
	return res, tr.Usage, nil
}

// Cost runs the plan and returns only its metered usage; the result rows
// are discarded. This is how "actual costs" for training data are measured.
func (e *Executor) Cost(n *plan.Node) (Usage, error) {
	_, u, err := e.Execute(n)
	return u, err
}

// Trace runs the plan and returns the trace of its execution, whose
// Usage is what Cost returns; the result rows are discarded. Compose
// prices the plan's rewrites from it.
func (e *Executor) Trace(n *plan.Node) (*Trace, error) {
	a, _ := e.arenas.Get().(*arena)
	if a == nil {
		a = &arena{}
	}
	_, tr, err := e.execute(n, a)
	a.vals, a.rows = a.vals[:0], a.rows[:0]
	e.arenas.Put(a)
	return tr, err
}

// execute is the one metered run every entry point shares; the
// operators' output comes from a (nil: allocated).
func (e *Executor) execute(n *plan.Node, a *arena) (*Result, *Trace, error) {
	defer obs.StartSpan("engine.exec")()
	m := &meter{arena: a}
	res, err := e.run(n, m)
	if err != nil {
		return nil, nil, err
	}
	obsExecCount.Inc()
	obsExecRows.Add(int64(len(res.Rows)))
	tr := &Trace{
		Usage: Usage{
			CPUOps:    m.ops,
			PeakBytes: m.peak,
			OutRows:   len(res.Rows),
			OutBytes:  res.bytes,
		},
		nodes: m.nodes,
		live:  m.live,
	}
	return res, tr, nil
}

// run executes n's subtree and records it in the meter's trace: the
// node's entry goes in before its children's (preorder), and is
// completed with the subtree's ops, allocations and output when it
// returns.
func (e *Executor) run(n *plan.Node, m *meter) (*Result, error) {
	i := len(m.nodes)
	m.nodes = append(m.nodes, nodeTrace{node: n, start: m.cur, from: len(m.live)})
	ops := m.ops
	res, err := e.runOp(n, m)
	if err != nil {
		return nil, err
	}
	nt := &m.nodes[i]
	nt.ops = m.ops - ops
	nt.to, nt.end = len(m.live), len(m.nodes)
	nt.rows, nt.bytes = len(res.Rows), res.bytes
	return res, nil
}

func (e *Executor) runOp(n *plan.Node, m *meter) (*Result, error) {
	switch n.Op {
	case plan.OpScan:
		return e.runScan(n, m)
	case plan.OpFilter:
		return e.runFilter(n, m)
	case plan.OpProject:
		return e.runProject(n, m)
	case plan.OpJoin:
		return e.runJoin(n, m)
	case plan.OpAggregate:
		return e.runAggregate(n, m)
	default:
		return nil, fmt.Errorf("engine: unsupported operator %v", n.Op)
	}
}

func (e *Executor) runScan(n *plan.Node, m *meter) (*Result, error) {
	t, err := e.scanTable(n.Table, len(n.Schema))
	if err != nil {
		return nil, err
	}
	m.op(scanOps(t))
	res := &Result{Schema: n.Schema, Rows: t.Rows, bytes: t.Bytes()}
	m.alloc(res.bytes)
	return res, nil
}

// scanTable fetches the table a scan with cols output columns reads.
func (e *Executor) scanTable(name string, cols int) (*storage.Table, error) {
	t, ok := e.Store.Get(name)
	if !ok {
		return nil, fmt.Errorf("engine: table %q not found in store", name)
	}
	if len(t.Meta.Columns) != cols {
		return nil, fmt.Errorf("engine: schema drift for table %q: plan has %d cols, store has %d",
			name, cols, len(t.Meta.Columns))
	}
	return t, nil
}

// scanOps is what scanning t charges: per row, proportionally to row
// width (I/O cost follows bytes, not tuples: a wide materialized view is
// more expensive to scan than a narrow one).
func scanOps(t *storage.Table) int64 {
	return int64(len(t.Rows)) * scanWeight(t.Meta.RowWidth())
}

// scanWeight converts a row byte width into per-row scan operations (one
// op per 8 bytes, minimum 1).
func scanWeight(rowWidth int) int64 {
	w := int64(rowWidth) / 8
	if w < 1 {
		w = 1
	}
	return w
}

func (e *Executor) runFilter(n *plan.Node, m *meter) (*Result, error) {
	in, err := e.run(n.Child(0), m)
	if err != nil {
		return nil, err
	}
	pred := compilePred(n.Pred)
	out := &Result{Schema: n.Schema}
	if m.arena != nil {
		out.Rows = m.arena.rowSlice(len(in.Rows))
	}
	var cmps int64
	for _, row := range in.Rows {
		keep, c := pred(row)
		cmps += int64(c)
		if keep {
			out.Rows = append(out.Rows, row)
			out.bytes += int64(row.Width())
		}
	}
	m.op(cmps)
	m.alloc(out.bytes)
	m.free(in.bytes)
	return out, nil
}

func (e *Executor) runProject(n *plan.Node, m *meter) (*Result, error) {
	in, err := e.run(n.Child(0), m)
	if err != nil {
		return nil, err
	}
	out := &Result{Schema: n.Schema, Rows: m.arena.rowSlice(len(in.Rows))}
	k := len(n.Proj)
	vals := m.arena.values(len(in.Rows) * k) // every output row, back to back
	for r, row := range in.Rows {
		// Column pruning is cheap: one op per row regardless of width.
		m.op(1)
		outRow := storage.Row(vals[r*k : (r+1)*k : (r+1)*k])
		for i, pc := range n.Proj {
			outRow[i] = row[pc.Src]
		}
		out.Rows = append(out.Rows, outRow)
		out.bytes += int64(outRow.Width())
	}
	m.alloc(out.bytes)
	m.free(in.bytes)
	return out, nil
}

// appendKey appends the composite hash key of a row's join or group
// columns to dst: "s:" and the text of a string, "n:" and the shortest
// %g form of a number, each followed by '|'. The key's length is what a
// hash table is metered for. An integral number in (−1e6, 1e6), other
// than −0 (whose bits are not those of its integer), is appended as an
// integer: for it %g writes exactly those digits, and they cost no
// float formatting.
func appendKey(dst []byte, row storage.Row, cols []int) []byte {
	for _, c := range cols {
		v := &row[c]
		switch {
		case v.Kind == catalog.TypeString:
			dst = append(dst, "s:"...)
			dst = append(dst, v.S...)
		case v.Kind == catalog.TypeInt && v.I > -1e6 && v.I < 1e6:
			dst = append(dst, "n:"...)
			dst = strconv.AppendInt(dst, v.I, 10)
		default:
			dst = append(dst, "n:"...)
			f := v.AsFloat()
			if f > -1e6 && f < 1e6 && math.Float64bits(float64(int64(f))) == math.Float64bits(f) {
				dst = strconv.AppendInt(dst, int64(f), 10)
			} else {
				dst = strconv.AppendFloat(dst, f, 'g', -1, 64)
			}
		}
		dst = append(dst, '|')
	}
	return dst
}

func (e *Executor) runJoin(n *plan.Node, m *meter) (*Result, error) {
	left, err := e.run(n.Child(0), m)
	if err != nil {
		return nil, err
	}
	right, err := e.run(n.Child(1), m)
	if err != nil {
		return nil, err
	}
	lcols := make([]int, len(n.JoinCond))
	rcols := make([]int, len(n.JoinCond))
	for i, je := range n.JoinCond {
		lcols[i] = je.Left
		rcols[i] = je.Right
	}
	// Build a hash table on the right input: each key's bucket heads a
	// chain of its rows, linked back to front so it runs in input order,
	// with no allocation per row.
	buckets := make(map[string]int32, len(right.Rows))
	var head, size []int32                 // bucket → its first row, its row count
	next := make([]int32, len(right.Rows)) // row → the next row of its bucket, or -1
	var kb []byte
	var htBytes int64
	for i := len(right.Rows) - 1; i >= 0; i-- {
		row := right.Rows[i]
		kb = appendKey(kb[:0], row, rcols)
		b, ok := buckets[string(kb)]
		if !ok {
			b = int32(len(head))
			buckets[string(kb)] = b
			head = append(head, -1)
			size = append(size, 0)
		}
		next[i], head[b] = head[b], int32(i)
		size[b]++
		htBytes += int64(len(kb)) + int64(row.Width())
		m.op(2)
	}
	m.alloc(htBytes)

	// Probe: each left row's bucket, and the output it makes.
	leftJoin := n.JoinType == plan.LeftJoin
	match := make([]int32, len(left.Rows))
	outRows := 0
	for i, lrow := range left.Rows {
		kb = appendKey(kb[:0], lrow, lcols)
		m.op(2)
		b, ok := buckets[string(kb)]
		switch {
		case ok:
			match[i] = b
			outRows += int(size[b])
		case leftJoin:
			match[i] = -1
			outRows++
		default:
			match[i] = -1
		}
	}

	// Emit, every output row carved from one slab.
	lw, rw := len(left.Schema), len(right.Schema)
	w := lw + rw
	vals := m.arena.values(outRows * w)
	out := &Result{Schema: n.Schema, Rows: m.arena.rowSlice(outRows)}
	var zeros storage.Row // a left join's unmatched right side
	if leftJoin {
		for _, c := range right.Schema {
			zeros = append(zeros, zeroValue(c.Type))
		}
	}
	zerosBytes := int64(zeros.Width())
	emit := func(lrow, rrow storage.Row) {
		k := len(out.Rows) * w
		outRow := storage.Row(vals[k : k+w : k+w])
		copy(outRow, lrow)
		copy(outRow[lw:], rrow)
		out.Rows = append(out.Rows, outRow)
		m.op(1)
	}
	for i, lrow := range left.Rows {
		b := match[i]
		if b < 0 {
			if leftJoin {
				emit(lrow, zeros)
				out.bytes += int64(lrow.Width()) + zerosBytes
			}
			continue
		}
		lbytes := int64(lrow.Width())
		for r := head[b]; r >= 0; r = next[r] {
			rrow := right.Rows[r]
			emit(lrow, rrow)
			out.bytes += lbytes + int64(rrow.Width())
		}
	}
	m.alloc(out.bytes)
	m.free(htBytes)
	m.free(left.bytes)
	m.free(right.bytes)
	return out, nil
}

func zeroValue(t catalog.ColType) storage.Value {
	switch t {
	case catalog.TypeFloat:
		return storage.Float(0)
	case catalog.TypeString:
		return storage.Str("")
	default:
		return storage.Int(0)
	}
}

// aggState accumulates one aggregate for one group.
type aggState struct {
	count int64
	sum   float64
	min   storage.Value
	max   storage.Value
	seen  bool
}

func (s *aggState) update(v storage.Value) {
	s.count++
	s.sum += v.AsFloat()
	if !s.seen {
		s.min, s.max, s.seen = v, v, true
		return
	}
	if v.Compare(s.min) < 0 {
		s.min = v
	}
	if v.Compare(s.max) > 0 {
		s.max = v
	}
}

func (s *aggState) result(f plan.AggFunc, outType catalog.ColType) storage.Value {
	switch f {
	case plan.AggCount:
		return storage.Int(s.count)
	case plan.AggSum:
		if outType == catalog.TypeInt {
			return storage.Int(int64(s.sum))
		}
		return storage.Float(s.sum)
	case plan.AggAvg:
		if s.count == 0 {
			return storage.Float(0)
		}
		return storage.Float(s.sum / float64(s.count))
	case plan.AggMin:
		if !s.seen {
			return zeroValue(outType)
		}
		return s.min
	case plan.AggMax:
		if !s.seen {
			return zeroValue(outType)
		}
		return s.max
	default:
		return storage.Int(0)
	}
}

func (e *Executor) runAggregate(n *plan.Node, m *meter) (*Result, error) {
	in, err := e.run(n.Child(0), m)
	if err != nil {
		return nil, err
	}
	type group struct {
		key    storage.Row // group-by values
		states []aggState
	}
	groups := make(map[string]*group)
	var order []string // deterministic output order (first-seen)
	var kb []byte
	for _, row := range in.Rows {
		kb = appendKey(kb[:0], row, n.GroupBy)
		g, ok := groups[string(kb)]
		if !ok {
			k := string(kb)
			keyVals := make(storage.Row, len(n.GroupBy))
			for i, gc := range n.GroupBy {
				keyVals[i] = row[gc]
			}
			g = &group{key: keyVals, states: make([]aggState, len(n.Aggs))}
			groups[k] = g
			order = append(order, k)
		}
		m.op(int64(2 + len(n.Aggs)))
		for i, a := range n.Aggs {
			if a.Col >= 0 {
				g.states[i].update(row[a.Col])
			} else {
				g.states[i].count++
			}
		}
	}
	// Global aggregate over empty input still yields one row.
	if len(n.GroupBy) == 0 && len(groups) == 0 {
		groups[""] = &group{states: make([]aggState, len(n.Aggs))}
		order = append(order, "")
	}
	var groupBytes int64
	out := &Result{Schema: n.Schema, Rows: make([]storage.Row, 0, len(groups))}
	for _, k := range order {
		g := groups[k]
		outRow := make(storage.Row, len(n.AggOuts))
		for i, spec := range n.AggOuts {
			if spec.FromGroup {
				outRow[i] = g.key[spec.Idx]
			} else {
				outRow[i] = g.states[spec.Idx].result(n.Aggs[spec.Idx].Func, n.Schema[i].Type)
			}
		}
		out.Rows = append(out.Rows, outRow)
		w := int64(outRow.Width())
		out.bytes += w
		groupBytes += w + 48
	}
	m.alloc(groupBytes)
	m.alloc(out.bytes)
	m.free(groupBytes)
	m.free(in.bytes)
	return out, nil
}
