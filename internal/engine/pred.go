package engine

import (
	"autoview/internal/catalog"
	"autoview/internal/plan"
	"autoview/internal/storage"
)

// predFunc is a compiled predicate: whether a row passes, and the number
// of elementary comparisons that took — Pred.Eval's answer and count.
type predFunc func(storage.Row) (bool, int)

// compilePred turns a bound predicate into closures once per Filter, so
// the per-row work is the comparison itself: no Operand resolved, no
// Value copied, no CmpOp switched on. It keeps Pred.Eval's evaluation
// order and short-circuiting (AND stops at a false left side, OR at a
// true one), hence its comparison count, and each comparison is
// CmpOp.Eval's on the same values (storage.Value's Equal and Compare).
func compilePred(p plan.Pred) predFunc {
	switch x := p.(type) {
	case *plan.Cmp:
		return compileCmp(x)
	case *plan.Bool:
		l, r := compilePred(x.L), compilePred(x.R)
		switch x.Op {
		case plan.BoolAnd:
			return func(row storage.Row) (bool, int) {
				lv, ln := l(row)
				if !lv {
					return false, ln
				}
				rv, rn := r(row)
				return rv, ln + rn
			}
		case plan.BoolOr:
			return func(row storage.Row) (bool, int) {
				lv, ln := l(row)
				if lv {
					return true, ln
				}
				rv, rn := r(row)
				return rv, ln + rn
			}
		}
	}
	return func(row storage.Row) (bool, int) { return p.Eval(row) }
}

// flipped is the comparison with its operands swapped: a op b ⇔
// b flipped(op) a, also for NaN and for a string against a number,
// since Compare is antisymmetric.
func flipped(op plan.CmpOp) plan.CmpOp {
	switch op {
	case plan.CmpLt:
		return plan.CmpGt
	case plan.CmpLe:
		return plan.CmpGe
	case plan.CmpGt:
		return plan.CmpLt
	case plan.CmpGe:
		return plan.CmpLe
	}
	return op
}

// compileCmp specializes one comparison on its operands' kinds: a column
// against a numeric or a string constant (a constant on the left is
// swapped to the right), two columns, or two constants.
func compileCmp(c *plan.Cmp) predFunc {
	l, r, op := c.L, c.R, c.Op
	switch {
	case !l.IsCol && !r.IsCol:
		v := op.Eval(l.Const, r.Const)
		return func(storage.Row) (bool, int) { return v, 1 }
	case l.IsCol && r.IsCol:
		a, b := l.Col, r.Col
		return func(row storage.Row) (bool, int) { return op.Eval(row[a], row[b]), 1 }
	case !l.IsCol:
		l, r, op = r, l, flipped(op)
	}
	if r.Const.Kind == catalog.TypeString {
		return colStr(op, l.Col, r.Const.S)
	}
	return colNum(op, l.Col, r.Const)
}

// colNum compares column c with the number k: equality is Value.Equal;
// for order a string value comes after every number, and numbers
// compare as float64, where NaN is neither below nor above anything
// (Compare's 0).
func colNum(op plan.CmpOp, c int, k storage.Value) predFunc {
	f := k.AsFloat()
	switch op {
	case plan.CmpEq:
		return func(row storage.Row) (bool, int) { return row[c].Equal(k), 1 }
	case plan.CmpNe:
		return func(row storage.Row) (bool, int) { return !row[c].Equal(k), 1 }
	case plan.CmpLt:
		return func(row storage.Row) (bool, int) {
			v := &row[c]
			return v.Kind != catalog.TypeString && v.AsFloat() < f, 1
		}
	case plan.CmpLe:
		return func(row storage.Row) (bool, int) {
			v := &row[c]
			return v.Kind != catalog.TypeString && !(v.AsFloat() > f), 1
		}
	case plan.CmpGt:
		return func(row storage.Row) (bool, int) {
			v := &row[c]
			return v.Kind == catalog.TypeString || v.AsFloat() > f, 1
		}
	case plan.CmpGe:
		return func(row storage.Row) (bool, int) {
			v := &row[c]
			return v.Kind == catalog.TypeString || !(v.AsFloat() < f), 1
		}
	}
	return func(storage.Row) (bool, int) { return false, 1 }
}

// colStr compares column c with the string s. A number never equals a
// string and orders before every one; strings compare bytewise.
func colStr(op plan.CmpOp, c int, s string) predFunc {
	switch op {
	case plan.CmpEq:
		return func(row storage.Row) (bool, int) {
			v := &row[c]
			return v.Kind == catalog.TypeString && v.S == s, 1
		}
	case plan.CmpNe:
		return func(row storage.Row) (bool, int) {
			v := &row[c]
			return v.Kind != catalog.TypeString || v.S != s, 1
		}
	case plan.CmpLt:
		return func(row storage.Row) (bool, int) {
			v := &row[c]
			return v.Kind != catalog.TypeString || v.S < s, 1
		}
	case plan.CmpLe:
		return func(row storage.Row) (bool, int) {
			v := &row[c]
			return v.Kind != catalog.TypeString || v.S <= s, 1
		}
	case plan.CmpGt:
		return func(row storage.Row) (bool, int) {
			v := &row[c]
			return v.Kind == catalog.TypeString && v.S > s, 1
		}
	case plan.CmpGe:
		return func(row storage.Row) (bool, int) {
			v := &row[c]
			return v.Kind == catalog.TypeString && v.S >= s, 1
		}
	}
	return func(storage.Row) (bool, int) { return false, 1 }
}
