package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatEq flags == and != between floating-point operands. After any
// arithmetic, exact FP equality encodes an assumption about rounding
// that a re-ordered reduction (e.g. a different Parallelism setting)
// silently invalidates — the bug class the data-parallel trainer's
// bit-identical guarantee exists to prevent. Compare against an epsilon
// or math.Abs(a-b) <= tol instead.
//
// One shape is deliberately not flagged: a comparison whose operands are
// both compile-time constants, which folds exactly. The NaN self-test
// `x != x` is flagged like any other; write math.IsNaN(x).
//
// Comparisons against an exact sentinel (x == 0) are still flagged;
// when the zero truly is exact — an uninitialized-field check, a
// documented sentinel — suppress with //lint:allow floateq <reason>.
//
// Tolerance comparisons themselves live behind the vetted helpers
// nn.AlmostEqual / nn.ULPDiff32, whose internal
// exact-equality short-circuits carry the audit-tagged form
// //lint:allow floateq(audit) <reason>. New non-test code comparing
// f32-kernel outputs should call those helpers rather than add inline
// epsilon checks; the audit tag keeps the vetted entry points
// greppable and distinct from ordinary sentinel waivers (LINTING.md).
var FloatEq = &Analyzer{
	Name: "floateq",
	Doc:  "flag ==/!= between floating-point operands",
	Run:  runFloatEq,
}

func runFloatEq(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
				return true
			}
			xt, yt := pass.Info.Types[bin.X], pass.Info.Types[bin.Y]
			if !isFloat(defaultType(xt)) && !isFloat(defaultType(yt)) {
				return true
			}
			if xt.Value != nil && yt.Value != nil {
				return true // constant-folded: exact by construction
			}
			pass.Reportf(bin.OpPos, "floating-point %s comparison is exact and breaks under re-ordered reductions; compare with a tolerance (math.IsNaN for a NaN test; //lint:allow floateq if the value is a never-computed sentinel)", bin.Op)
			return true
		})
	}
	return nil
}

// defaultType resolves untyped constants to their default type so an
// untyped 0 compared against a float64 counts as float.
func defaultType(tv types.TypeAndValue) types.Type {
	if tv.Type == nil {
		return types.Typ[types.Invalid]
	}
	return types.Default(tv.Type)
}
