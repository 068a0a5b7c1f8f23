package plan

import (
	"fmt"
	"strconv"
	"strings"

	"autoview/internal/catalog"
	"autoview/internal/obs"
	"autoview/internal/sqlparse"
	"autoview/internal/storage"
)

var obsParsed = obs.Default.Counter("parse.queries", "SQL statements parsed and bound into plans")

// BindError reports a semantic error while turning an AST into a plan.
type BindError struct{ Msg string }

func (e *BindError) Error() string { return "plan: " + e.Msg }

func bindErrf(format string, args ...any) error {
	return &BindError{Msg: fmt.Sprintf(format, args...)}
}

// Build binds a parsed SELECT statement against the catalog and returns
// its logical plan.
func Build(stmt *sqlparse.SelectStmt, cat *catalog.Catalog) (*Node, error) {
	b := &builder{cat: cat}
	return b.buildSelect(stmt)
}

// Parse parses SQL text and builds its plan in one step.
func Parse(sql string, cat *catalog.Catalog) (*Node, error) {
	defer obs.StartSpan("parse.query")()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	obsParsed.Inc()
	return Build(stmt, cat)
}

type builder struct {
	cat *catalog.Catalog
}

func (b *builder) buildSelect(stmt *sqlparse.SelectStmt) (*Node, error) {
	cur, err := b.buildTableRef(stmt.From)
	if err != nil {
		return nil, err
	}
	for _, jc := range stmt.Joins {
		right, err := b.buildTableRef(jc.Right)
		if err != nil {
			return nil, err
		}
		join, err := b.buildJoin(cur, right, jc)
		if err != nil {
			return nil, err
		}
		cur = join
	}
	if stmt.Where != nil {
		pred, err := bindPred(stmt.Where, cur.Schema)
		if err != nil {
			return nil, err
		}
		cur = &Node{
			Op:       OpFilter,
			Children: []*Node{cur},
			Pred:     pred,
			Schema:   append([]ColInfo(nil), cur.Schema...),
		}
	}
	return b.buildSelectList(stmt, cur)
}

func (b *builder) buildTableRef(ref *sqlparse.TableRef) (*Node, error) {
	if ref.Subquery != nil {
		sub, err := b.buildSelect(ref.Subquery)
		if err != nil {
			return nil, err
		}
		// Re-qualify the derived table's output with its alias so
		// t1.user_id resolves; the subplan belongs exclusively to this
		// query tree, so mutation is safe.
		for i := range sub.Schema {
			sub.Schema[i].Qual = ref.Alias
		}
		return sub, nil
	}
	meta, ok := b.cat.Table(ref.Table)
	if !ok {
		return nil, bindErrf("unknown table %q", ref.Table)
	}
	qual := ref.Alias
	if qual == "" {
		qual = ref.Table
	}
	schema := make([]ColInfo, len(meta.Columns))
	for i, c := range meta.Columns {
		schema[i] = ColInfo{Qual: qual, Name: c.Name, Type: c.Type}
	}
	return &Node{Op: OpScan, Table: ref.Table, Schema: schema}, nil
}

func (b *builder) buildJoin(left, right *Node, jc *sqlparse.JoinClause) (*Node, error) {
	var jt JoinType
	switch jc.Type {
	case sqlparse.JoinInner:
		jt = InnerJoin
	case sqlparse.JoinLeft:
		jt = LeftJoin
	default:
		return nil, bindErrf("unsupported join type %v", jc.Type)
	}
	conjuncts := sqlparse.Conjuncts(jc.On)
	eqs := make([]JoinEq, 0, len(conjuncts))
	for _, c := range conjuncts {
		be, ok := c.(*sqlparse.BinaryExpr)
		if !ok || be.Op != sqlparse.OpEq {
			return nil, bindErrf("join condition must be a conjunction of equalities, got %s", c.SQL())
		}
		lref, lok := be.L.(*sqlparse.ColumnRef)
		rref, rok := be.R.(*sqlparse.ColumnRef)
		if !lok || !rok {
			return nil, bindErrf("join condition sides must be columns, got %s", c.SQL())
		}
		li, lerr := resolve(lref, left.Schema)
		ri, rerr := resolve(rref, right.Schema)
		if lerr != nil || rerr != nil {
			// Maybe the sides are written right=left.
			li2, lerr2 := resolve(rref, left.Schema)
			ri2, rerr2 := resolve(lref, right.Schema)
			if lerr2 != nil || rerr2 != nil {
				return nil, bindErrf("cannot resolve join condition %s", c.SQL())
			}
			li, ri = li2, ri2
		}
		eqs = append(eqs, JoinEq{Left: li, Right: ri})
	}
	if len(eqs) == 0 {
		return nil, bindErrf("join requires at least one equality condition")
	}
	schema := make([]ColInfo, 0, len(left.Schema)+len(right.Schema))
	schema = append(schema, left.Schema...)
	schema = append(schema, right.Schema...)
	return &Node{
		Op:       OpJoin,
		Children: []*Node{left, right},
		JoinType: jt,
		JoinCond: eqs,
		Schema:   schema,
	}, nil
}

func (b *builder) buildSelectList(stmt *sqlparse.SelectStmt, input *Node) (*Node, error) {
	hasAgg := len(stmt.GroupBy) > 0
	for _, item := range stmt.Items {
		if _, ok := item.Expr.(*sqlparse.FuncCall); ok {
			hasAgg = true
		}
	}
	if !hasAgg {
		return b.buildProject(stmt, input)
	}
	return b.buildAggregate(stmt, input)
}

func (b *builder) buildProject(stmt *sqlparse.SelectStmt, input *Node) (*Node, error) {
	proj := make([]ProjCol, 0, len(stmt.Items))
	schema := make([]ColInfo, 0, len(stmt.Items))
	for _, item := range stmt.Items {
		ref, ok := item.Expr.(*sqlparse.ColumnRef)
		if !ok {
			return nil, bindErrf("select item %s is not a column reference (non-aggregate query)", item.Expr.SQL())
		}
		idx, err := resolve(ref, input.Schema)
		if err != nil {
			return nil, err
		}
		name := item.Alias
		if name == "" {
			name = input.Schema[idx].Name
		}
		proj = append(proj, ProjCol{Src: idx, Name: name})
		schema = append(schema, ColInfo{Name: name, Type: input.Schema[idx].Type})
	}
	return &Node{Op: OpProject, Children: []*Node{input}, Proj: proj, Schema: schema}, nil
}

func (b *builder) buildAggregate(stmt *sqlparse.SelectStmt, input *Node) (*Node, error) {
	node := &Node{Op: OpAggregate, Children: []*Node{input}}
	groupIdx := make(map[int]int) // child col index -> position in GroupBy
	for _, g := range stmt.GroupBy {
		idx, err := resolve(g, input.Schema)
		if err != nil {
			return nil, err
		}
		if _, dup := groupIdx[idx]; dup {
			continue
		}
		groupIdx[idx] = len(node.GroupBy)
		node.GroupBy = append(node.GroupBy, idx)
	}
	for _, item := range stmt.Items {
		switch x := item.Expr.(type) {
		case *sqlparse.ColumnRef:
			idx, err := resolve(x, input.Schema)
			if err != nil {
				return nil, err
			}
			gpos, ok := groupIdx[idx]
			if !ok {
				return nil, bindErrf("select column %s is not in GROUP BY", x.SQL())
			}
			name := item.Alias
			if name == "" {
				name = input.Schema[idx].Name
			}
			node.AggOuts = append(node.AggOuts, OutSpec{FromGroup: true, Idx: gpos})
			node.Schema = append(node.Schema, ColInfo{Name: name, Type: input.Schema[idx].Type})
		case *sqlparse.FuncCall:
			spec, colType, err := bindAgg(x, item.Alias, input.Schema)
			if err != nil {
				return nil, err
			}
			node.AggOuts = append(node.AggOuts, OutSpec{FromGroup: false, Idx: len(node.Aggs)})
			node.Aggs = append(node.Aggs, spec)
			node.Schema = append(node.Schema, ColInfo{Name: spec.Name, Type: colType})
		default:
			return nil, bindErrf("unsupported select item %s in aggregate query", item.Expr.SQL())
		}
	}
	if len(node.Aggs) == 0 {
		return nil, bindErrf("aggregate query must contain at least one aggregate function")
	}
	if stmt.Having != nil {
		// HAVING filters the aggregate's output; it binds against the
		// aggregate schema, so it can reference aggregate aliases.
		pred, err := bindPred(stmt.Having, node.Schema)
		if err != nil {
			return nil, err
		}
		return &Node{
			Op:       OpFilter,
			Children: []*Node{node},
			Pred:     pred,
			Schema:   append([]ColInfo(nil), node.Schema...),
		}, nil
	}
	return node, nil
}

func bindAgg(fc *sqlparse.FuncCall, alias string, schema []ColInfo) (AggSpec, catalog.ColType, error) {
	var fn AggFunc
	switch strings.ToLower(fc.Name) {
	case "count":
		fn = AggCount
	case "sum":
		fn = AggSum
	case "avg":
		fn = AggAvg
	case "min":
		fn = AggMin
	case "max":
		fn = AggMax
	default:
		return AggSpec{}, 0, bindErrf("unsupported aggregate %q", fc.Name)
	}
	col := -1
	colType := catalog.TypeInt
	if !fc.Star {
		ref, ok := fc.Arg.(*sqlparse.ColumnRef)
		if !ok {
			return AggSpec{}, 0, bindErrf("aggregate argument must be a column, got %s", fc.Arg.SQL())
		}
		idx, err := resolve(ref, schema)
		if err != nil {
			return AggSpec{}, 0, err
		}
		col = idx
		colType = schema[idx].Type
	} else if fn != AggCount {
		return AggSpec{}, 0, bindErrf("%s(*) is not supported", fc.Name)
	}
	var outType catalog.ColType
	switch fn {
	case AggCount:
		outType = catalog.TypeInt
	case AggAvg:
		outType = catalog.TypeFloat
	case AggSum, AggMin, AggMax:
		if fn != AggSum && colType == catalog.TypeString {
			outType = catalog.TypeString
		} else if colType == catalog.TypeString {
			return AggSpec{}, 0, bindErrf("sum over string column")
		} else {
			outType = colType
		}
	}
	name := alias
	if name == "" {
		name = strings.ToLower(fn.String())
	}
	return AggSpec{Func: fn, Col: col, Name: name}, outType, nil
}

// resolve finds the schema index of a column reference.
func resolve(ref *sqlparse.ColumnRef, schema []ColInfo) (int, error) {
	found := -1
	for i, c := range schema {
		if c.Name != ref.Name {
			continue
		}
		if ref.Qualifier != "" && c.Qual != ref.Qualifier {
			continue
		}
		if found >= 0 {
			return 0, bindErrf("ambiguous column reference %s", ref.SQL())
		}
		found = i
	}
	if found < 0 {
		return 0, bindErrf("unknown column %s", ref.SQL())
	}
	return found, nil
}

// bindPred binds an AST predicate against a schema.
func bindPred(e sqlparse.Expr, schema []ColInfo) (Pred, error) {
	switch x := e.(type) {
	case *sqlparse.BinaryExpr:
		switch x.Op {
		case sqlparse.OpAnd, sqlparse.OpOr:
			l, err := bindPred(x.L, schema)
			if err != nil {
				return nil, err
			}
			r, err := bindPred(x.R, schema)
			if err != nil {
				return nil, err
			}
			op := BoolAnd
			if x.Op == sqlparse.OpOr {
				op = BoolOr
			}
			return &Bool{Op: op, L: l, R: r}, nil
		default:
			l, err := bindOperand(x.L, schema)
			if err != nil {
				return nil, err
			}
			r, err := bindOperand(x.R, schema)
			if err != nil {
				return nil, err
			}
			op, err := cmpOpOf(x.Op)
			if err != nil {
				return nil, err
			}
			return &Cmp{Op: op, L: l, R: r}, nil
		}
	default:
		return nil, bindErrf("unsupported predicate %s", e.SQL())
	}
}

func cmpOpOf(op sqlparse.BinaryOp) (CmpOp, error) {
	switch op {
	case sqlparse.OpEq:
		return CmpEq, nil
	case sqlparse.OpNe:
		return CmpNe, nil
	case sqlparse.OpLt:
		return CmpLt, nil
	case sqlparse.OpLe:
		return CmpLe, nil
	case sqlparse.OpGt:
		return CmpGt, nil
	case sqlparse.OpGe:
		return CmpGe, nil
	default:
		return 0, bindErrf("unsupported comparison operator %q", op)
	}
}

func bindOperand(e sqlparse.Expr, schema []ColInfo) (Operand, error) {
	switch x := e.(type) {
	case *sqlparse.ColumnRef:
		idx, err := resolve(x, schema)
		if err != nil {
			return Operand{}, err
		}
		return ColOperand(idx), nil
	case *sqlparse.Literal:
		v, err := LiteralValue(*x)
		if err != nil {
			return Operand{}, err
		}
		return Operand{Const: v, Lit: x.Ord}, nil
	default:
		return Operand{}, bindErrf("unsupported operand %s", e.SQL())
	}
}

// LiteralValue is the constant a literal binds to: a string, or a
// number read as an int64 or, with a decimal point, a float64. It is the
// one place a literal's text becomes a value, for Build and for
// featenc.PlanFeat.Rebind alike; a number out of range is a *BindError.
func LiteralValue(l sqlparse.Literal) (storage.Value, error) {
	if l.Kind == sqlparse.LitString {
		return storage.Str(l.Text), nil
	}
	if strings.ContainsAny(l.Text, ".eE") {
		f, err := strconv.ParseFloat(l.Text, 64)
		if err != nil {
			return storage.Value{}, bindErrf("bad numeric literal %q", l.Text)
		}
		return storage.Float(f), nil
	}
	i, err := strconv.ParseInt(l.Text, 10, 64)
	if err != nil {
		return storage.Value{}, bindErrf("bad integer literal %q", l.Text)
	}
	return storage.Int(i), nil
}
