package plan

import (
	"fmt"
	"sort"
	"strings"

	"autoview/internal/storage"
)

// CmpOp enumerates comparison operators in bound predicates.
type CmpOp int

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// PrefixName returns the prefix-notation keyword used in serialized plans
// (Fig. 4: EQ, NE, LT, LE, GT, GE).
func (o CmpOp) PrefixName() string {
	switch o {
	case CmpEq:
		return "EQ"
	case CmpNe:
		return "NE"
	case CmpLt:
		return "LT"
	case CmpLe:
		return "LE"
	case CmpGt:
		return "GT"
	case CmpGe:
		return "GE"
	default:
		return fmt.Sprintf("CmpOp(%d)", int(o))
	}
}

// Eval applies the comparison to two values.
func (o CmpOp) Eval(a, b storage.Value) bool {
	switch o {
	case CmpEq:
		return a.Equal(b)
	case CmpNe:
		return !a.Equal(b)
	case CmpLt:
		return a.Compare(b) < 0
	case CmpLe:
		return a.Compare(b) <= 0
	case CmpGt:
		return a.Compare(b) > 0
	case CmpGe:
		return a.Compare(b) >= 0
	default:
		return false
	}
}

// Operand is one side of a comparison: either a column of the input row or
// a constant.
type Operand struct {
	IsCol bool
	Col   int // input column index when IsCol
	Const storage.Value
}

// ColOperand builds a column operand.
func ColOperand(idx int) Operand { return Operand{IsCol: true, Col: idx} }

// ConstOperand builds a constant operand.
func ConstOperand(v storage.Value) Operand { return Operand{Const: v} }

// Value resolves the operand against an input row.
func (o Operand) Value(row storage.Row) storage.Value {
	if o.IsCol {
		return row[o.Col]
	}
	return o.Const
}

// Pred is a bound boolean predicate over input rows.
type Pred interface {
	// Eval evaluates the predicate on a row and reports the number of
	// elementary comparisons performed (the executor's CPU meter charges
	// per comparison).
	Eval(row storage.Row) (bool, int)
	predNode()
}

// Cmp is an elementary comparison.
type Cmp struct {
	Op   CmpOp
	L, R Operand
}

func (*Cmp) predNode() {}

// Eval implements Pred.
func (c *Cmp) Eval(row storage.Row) (bool, int) {
	return c.Op.Eval(c.L.Value(row), c.R.Value(row)), 1
}

// BoolOp enumerates boolean connectives.
type BoolOp int

// Boolean connectives.
const (
	BoolAnd BoolOp = iota
	BoolOr
)

// PrefixName returns "AND" or "OR".
func (o BoolOp) PrefixName() string {
	if o == BoolOr {
		return "OR"
	}
	return "AND"
}

// Bool combines two predicates. Evaluation short-circuits.
type Bool struct {
	Op   BoolOp
	L, R Pred
}

func (*Bool) predNode() {}

// Eval implements Pred.
func (b *Bool) Eval(row storage.Row) (bool, int) {
	lv, ln := b.L.Eval(row)
	if b.Op == BoolAnd && !lv {
		return false, ln
	}
	if b.Op == BoolOr && lv {
		return true, ln
	}
	rv, rn := b.R.Eval(row)
	return rv, ln + rn
}

// PredConjuncts flattens a predicate into top-level AND conjuncts.
func PredConjuncts(p Pred) []Pred {
	if p == nil {
		return nil
	}
	if b, ok := p.(*Bool); ok && b.Op == BoolAnd {
		return append(PredConjuncts(b.L), PredConjuncts(b.R)...)
	}
	return []Pred{p}
}

// AndPreds combines predicates with AND (nil for empty input).
func AndPreds(ps []Pred) Pred {
	var out Pred
	for _, p := range ps {
		if p == nil {
			continue
		}
		if out == nil {
			out = p
		} else {
			out = &Bool{Op: BoolAnd, L: out, R: p}
		}
	}
	return out
}

// predTokenCount sizes a predicate's token sequence without building it,
// so serializeOp allocates exactly once.
func predTokenCount(p Pred) int {
	switch x := p.(type) {
	case nil:
		return 0
	case *Cmp:
		return 3
	case *Bool:
		return 1 + predTokenCount(x.L) + predTokenCount(x.R)
	default:
		return 1
	}
}

// appendPredTokens appends p, rendered in prefix notation against the
// input schema, to dst as the tokens the feature extractor reads:
// [AND, EQ, dt, '1010', EQ, memo_type, 'pen']. Constant literals are
// flagged as strings (Tok.Str) so the encoder routes them through String
// Encoding. dst grows at most once when sized with predTokenCount.
func appendPredTokens(dst []Tok, p Pred, schema []ColInfo) []Tok {
	switch x := p.(type) {
	case nil:
		return dst
	case *Cmp:
		return append(dst,
			Tok{Text: x.Op.PrefixName()},
			operandTok(x.L, schema),
			operandTok(x.R, schema))
	case *Bool:
		dst = append(dst, Tok{Text: x.Op.PrefixName()})
		dst = appendPredTokens(dst, x.L, schema)
		return appendPredTokens(dst, x.R, schema)
	default:
		return append(dst, Tok{Text: fmt.Sprintf("<%T>", p)})
	}
}

func operandTok(o Operand, schema []ColInfo) Tok {
	if o.IsCol {
		return Tok{Text: schema[o.Col].Name}
	}
	return Tok{Text: o.Const.String(), Str: true}
}

// PredString renders the predicate for plan printing, e.g.
// "AND(EQ(dt, '1010'), EQ(memo_type, 'pen'))".
func PredString(p Pred, schema []ColInfo) string {
	switch x := p.(type) {
	case nil:
		return "true"
	case *Cmp:
		return fmt.Sprintf("%s(%s, %s)", x.Op.PrefixName(),
			operandString(x.L, schema), operandString(x.R, schema))
	case *Bool:
		return fmt.Sprintf("%s(%s, %s)", x.Op.PrefixName(),
			PredString(x.L, schema), PredString(x.R, schema))
	default:
		return fmt.Sprintf("<%T>", p)
	}
}

func operandString(o Operand, schema []ColInfo) string {
	if o.IsCol {
		return schema[o.Col].Display()
	}
	return o.Const.String()
}

// canonicalPred renders a canonical (AND-sorted) form for fingerprints.
// Conjuncts are sorted by their rendering so predicate order does not
// affect equivalence.
func canonicalPred(p Pred, schema []ColInfo) string {
	conj := PredConjuncts(p)
	parts := make([]string, len(conj))
	for i, c := range conj {
		parts[i] = canonicalLeaf(c, schema)
	}
	sort.Strings(parts)
	return strings.Join(parts, "&")
}

// canonicalOperand renders operands without qualifiers: aliases are
// query-local and must not affect cross-query equivalence.
func canonicalOperand(o Operand, schema []ColInfo) string {
	if o.IsCol {
		return schema[o.Col].Name
	}
	return o.Const.String()
}

func canonicalLeaf(p Pred, schema []ColInfo) string {
	switch x := p.(type) {
	case *Cmp:
		l := canonicalOperand(x.L, schema)
		r := canonicalOperand(x.R, schema)
		// Normalize symmetric comparisons so a=b and b=a coincide.
		if (x.Op == CmpEq || x.Op == CmpNe) && r < l {
			l, r = r, l
		}
		return x.Op.PrefixName() + "(" + l + "," + r + ")"
	case *Bool:
		if x.Op == BoolAnd {
			return canonicalPred(x, schema)
		}
		// Disjuncts sort too: a OR b == b OR a.
		ls := canonicalLeaf(x.L, schema)
		rs := canonicalLeaf(x.R, schema)
		if rs < ls {
			ls, rs = rs, ls
		}
		return "OR(" + ls + "," + rs + ")"
	default:
		return fmt.Sprintf("<%T>", p)
	}
}
