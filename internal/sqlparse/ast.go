package sqlparse

import "strings"

// Node is implemented by all AST nodes.
type Node interface {
	// SQL renders the node back to SQL text (normalized spacing,
	// lower-case keywords). Round-tripping through Parse is lossless up
	// to whitespace and keyword case.
	SQL() string
}

// Expr is implemented by expression nodes.
type Expr interface {
	Node
	exprNode()
}

// ColumnRef references a column, optionally qualified by a table alias.
type ColumnRef struct {
	Qualifier string // may be empty
	Name      string
}

func (c *ColumnRef) exprNode() {}

// SQL implements Node.
func (c *ColumnRef) SQL() string {
	if c.Qualifier != "" {
		return c.Qualifier + "." + c.Name
	}
	return c.Name
}

// LiteralKind distinguishes literal types.
type LiteralKind int

const (
	// LitNumber is a numeric literal (stored as text to stay exact).
	LitNumber LiteralKind = iota
	// LitString is a string literal.
	LitString
)

// Literal is a constant value.
type Literal struct {
	Kind LiteralKind
	Text string
}

func (l *Literal) exprNode() {}

// SQL implements Node.
func (l *Literal) SQL() string {
	if l.Kind == LitString {
		return "'" + strings.ReplaceAll(l.Text, "'", "''") + "'"
	}
	return l.Text
}

// FuncCall is an aggregate call such as count(*), sum(x), avg(t.x).
type FuncCall struct {
	Name string // lower-cased: count, sum, avg, min, max
	Star bool   // count(*)
	Arg  Expr   // nil when Star
}

func (f *FuncCall) exprNode() {}

// SQL implements Node.
func (f *FuncCall) SQL() string {
	if f.Star {
		return f.Name + "(*)"
	}
	return f.Name + "(" + f.Arg.SQL() + ")"
}

// BinaryOp enumerates binary operators in predicates.
type BinaryOp string

// Comparison and boolean operators. Values are the normalized SQL spelling.
const (
	OpEq  BinaryOp = "="
	OpNe  BinaryOp = "<>"
	OpLt  BinaryOp = "<"
	OpLe  BinaryOp = "<="
	OpGt  BinaryOp = ">"
	OpGe  BinaryOp = ">="
	OpAnd BinaryOp = "and"
	OpOr  BinaryOp = "or"
)

// BinaryExpr is a binary predicate or boolean combination.
type BinaryExpr struct {
	Op   BinaryOp
	L, R Expr
}

func (b *BinaryExpr) exprNode() {}

// SQL implements Node.
func (b *BinaryExpr) SQL() string {
	switch b.Op {
	case OpAnd, OpOr:
		return "(" + b.L.SQL() + " " + string(b.Op) + " " + b.R.SQL() + ")"
	default:
		return b.L.SQL() + " " + string(b.Op) + " " + b.R.SQL()
	}
}

// SelectItem is one projection in the SELECT list.
type SelectItem struct {
	Expr  Expr
	Alias string // may be empty
}

// SQL implements Node.
func (s *SelectItem) SQL() string {
	if s.Alias != "" {
		return s.Expr.SQL() + " as " + s.Alias
	}
	return s.Expr.SQL()
}

// TableRef is a FROM item: either a base table or a parenthesized subquery,
// in both cases with an optional alias (mandatory for subqueries).
type TableRef struct {
	Table    string      // non-empty for base tables
	Subquery *SelectStmt // non-nil for derived tables
	Alias    string
}

// SQL implements Node.
func (t *TableRef) SQL() string {
	var base string
	if t.Subquery != nil {
		base = "(" + t.Subquery.SQL() + ")"
	} else {
		base = t.Table
	}
	if t.Alias != "" {
		return base + " " + t.Alias
	}
	return base
}

// JoinType enumerates supported join types.
type JoinType int

const (
	// JoinInner is an inner join.
	JoinInner JoinType = iota
	// JoinLeft is a left outer join.
	JoinLeft
)

// String returns the SQL keyword spelling.
func (j JoinType) String() string {
	if j == JoinLeft {
		return "left join"
	}
	return "inner join"
}

// JoinClause is one JOIN ... ON ... following the first FROM item.
type JoinClause struct {
	Type  JoinType
	Right *TableRef
	On    Expr
}

// SQL implements Node.
func (j *JoinClause) SQL() string {
	return j.Type.String() + " " + j.Right.SQL() + " on " + j.On.SQL()
}

// SelectStmt is a SELECT statement (or derived-table subquery).
type SelectStmt struct {
	Items   []*SelectItem
	From    *TableRef
	Joins   []*JoinClause
	Where   Expr // nil when absent
	GroupBy []*ColumnRef
	Having  Expr // nil when absent; references select-list aliases
}

// SQL implements Node.
func (s *SelectStmt) SQL() string {
	var b strings.Builder
	b.WriteString("select ")
	for i, item := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(item.SQL())
	}
	b.WriteString(" from ")
	b.WriteString(s.From.SQL())
	for _, j := range s.Joins {
		b.WriteString(" ")
		b.WriteString(j.SQL())
	}
	if s.Where != nil {
		b.WriteString(" where ")
		b.WriteString(s.Where.SQL())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" group by ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.SQL())
		}
	}
	if s.Having != nil {
		b.WriteString(" having ")
		b.WriteString(s.Having.SQL())
	}
	return b.String()
}

// Walk applies fn to every expression node under e, depth-first.
func Walk(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *BinaryExpr:
		Walk(x.L, fn)
		Walk(x.R, fn)
	case *FuncCall:
		if x.Arg != nil {
			Walk(x.Arg, fn)
		}
	}
}

// Conjuncts splits a predicate into its top-level AND conjuncts.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BinaryExpr); ok && b.Op == OpAnd {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []Expr{e}
}
