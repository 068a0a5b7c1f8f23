package engine

import (
	"fmt"
	"strconv"

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
}

// Bytes is the nominal byte size of the result.
func (r *Result) Bytes() int64 {
	var total int64
	for _, row := range r.Rows {
		total += int64(row.Width())
	}
	return total
}

// Executor evaluates logical plans against a store, metering cost.
type Executor struct {
	Store *storage.Store
}

// New returns an executor over the store.
func New(store *storage.Store) *Executor { return &Executor{Store: store} }

// Execute runs the plan and returns its result plus metered usage.
func (e *Executor) Execute(n *plan.Node) (*Result, Usage, error) {
	defer obs.StartSpan("engine.exec")()
	m := &meter{}
	res, err := e.run(n, m)
	if err != nil {
		return nil, Usage{}, err
	}
	obsExecCount.Inc()
	obsExecRows.Add(int64(len(res.Rows)))
	u := Usage{
		CPUOps:    m.ops,
		PeakBytes: m.peak,
		OutRows:   len(res.Rows),
		OutBytes:  res.Bytes(),
	}
	return res, u, nil
}

// Cost runs the plan and returns only its metered usage; the result rows
// are discarded. This is how "actual costs" for training data are measured.
func (e *Executor) Cost(n *plan.Node) (Usage, error) {
	_, u, err := e.Execute(n)
	return u, err
}

func (e *Executor) run(n *plan.Node, m *meter) (*Result, error) {
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
	t, ok := e.Store.Get(n.Table)
	if !ok {
		return nil, fmt.Errorf("engine: table %q not found in store", n.Table)
	}
	if len(t.Meta.Columns) != len(n.Schema) {
		return nil, fmt.Errorf("engine: schema drift for table %q: plan has %d cols, store has %d",
			n.Table, len(n.Schema), len(t.Meta.Columns))
	}
	// Scanning charges per row proportionally to row width (I/O cost
	// follows bytes, not tuples: a wide materialized view is more
	// expensive to scan than a narrow one).
	m.op(int64(len(t.Rows)) * scanWeight(t.Meta.RowWidth()))
	res := &Result{Schema: n.Schema, Rows: t.Rows}
	m.alloc(res.Bytes())
	return res, nil
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
	out := &Result{Schema: n.Schema}
	for _, row := range in.Rows {
		keep, cmps := n.Pred.Eval(row)
		m.op(int64(cmps))
		if keep {
			out.Rows = append(out.Rows, row)
		}
	}
	m.alloc(out.Bytes())
	m.free(in.Bytes())
	return out, nil
}

func (e *Executor) runProject(n *plan.Node, m *meter) (*Result, error) {
	in, err := e.run(n.Child(0), m)
	if err != nil {
		return nil, err
	}
	out := &Result{Schema: n.Schema, Rows: make([]storage.Row, 0, len(in.Rows))}
	for _, row := range in.Rows {
		// Column pruning is cheap: one op per row regardless of width.
		m.op(1)
		outRow := make(storage.Row, len(n.Proj))
		for i, pc := range n.Proj {
			outRow[i] = row[pc.Src]
		}
		out.Rows = append(out.Rows, outRow)
	}
	m.alloc(out.Bytes())
	m.free(in.Bytes())
	return out, nil
}

// appendKey appends the composite hash key of a row's join or group
// columns to dst: "s:" and the text of a string, "n:" and the shortest
// %g form of a number, each followed by '|'. The key's length is what a
// hash table is metered for.
func appendKey(dst []byte, row storage.Row, cols []int) []byte {
	for _, c := range cols {
		v := row[c]
		if v.Kind == catalog.TypeString {
			dst = append(dst, "s:"...)
			dst = append(dst, v.S...)
		} else {
			dst = append(dst, "n:"...)
			dst = strconv.AppendFloat(dst, v.AsFloat(), 'g', -1, 64)
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
	// Build a hash table on the right input.
	ht := make(map[string][]storage.Row, len(right.Rows))
	var kb []byte
	var htBytes int64
	for _, row := range right.Rows {
		kb = appendKey(kb[:0], row, rcols)
		k := string(kb)
		ht[k] = append(ht[k], row)
		htBytes += int64(len(k)) + int64(row.Width())
		m.op(2)
	}
	m.alloc(htBytes)

	out := &Result{Schema: n.Schema}
	rightWidth := len(right.Schema)
	for _, lrow := range left.Rows {
		kb = appendKey(kb[:0], lrow, lcols)
		m.op(2)
		matches := ht[string(kb)]
		if len(matches) == 0 {
			if n.JoinType == plan.LeftJoin {
				outRow := make(storage.Row, 0, len(lrow)+rightWidth)
				outRow = append(outRow, lrow...)
				for _, c := range right.Schema {
					outRow = append(outRow, zeroValue(c.Type))
				}
				out.Rows = append(out.Rows, outRow)
				m.op(1)
			}
			continue
		}
		for _, rrow := range matches {
			outRow := make(storage.Row, 0, len(lrow)+len(rrow))
			outRow = append(outRow, lrow...)
			outRow = append(outRow, rrow...)
			out.Rows = append(out.Rows, outRow)
			m.op(1)
		}
	}
	m.alloc(out.Bytes())
	m.free(htBytes)
	m.free(left.Bytes())
	m.free(right.Bytes())
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
		groupBytes += int64(outRow.Width()) + 48
	}
	m.alloc(groupBytes)
	m.alloc(out.Bytes())
	m.free(groupBytes)
	m.free(in.Bytes())
	return out, nil
}
