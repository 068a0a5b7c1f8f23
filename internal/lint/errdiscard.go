package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// neverFails recognizes writes whose error is documented to always be
// nil: *bytes.Buffer and *strings.Builder methods, and fmt.Fprint*
// targeting one of those.
func neverFails(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return isInfallibleWriter(sig.Recv().Type())
	}
	if fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "Fprint") && len(call.Args) > 0 {
		if t := info.TypeOf(call.Args[0]); t != nil {
			return isInfallibleWriter(t)
		}
	}
	return false
}

// isInfallibleWriter reports whether t is *bytes.Buffer or
// *strings.Builder (possibly behind one pointer).
func isInfallibleWriter(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	obj := named.Obj()
	path, name := obj.Pkg().Path(), obj.Name()
	return path == "bytes" && name == "Buffer" || path == "strings" && name == "Builder"
}

// ErrDiscard flags calls whose error result is silently dropped: a call
// with an error in its result tuple used as a bare statement (or go /
// defer statement) discards the error with no trace in the source. PR
// 2's Advisor.Select change showed such drops hiding real failures
// (OfflineTrain errors vanished for years of CI runs).
//
// Explicit discards remain legal and are the sanctioned escape hatch:
//
//	_ = w.Flush()          // visible, greppable
//	n, _ := fmt.Fprintf(…) // positional blank
//
// Writes that are documented to never fail carry no signal and are
// excluded: methods on *bytes.Buffer and *strings.Builder, and
// fmt.Fprint* whose destination is one of those.
//
// The analyzer runs only on packages under internal/ (the drivers apply
// the scope), matching the issue's contract.
var ErrDiscard = &Analyzer{
	Name: "errdiscard",
	Doc:  "flag silently dropped error returns in internal/",
	Run:  runErrDiscard,
}

func runErrDiscard(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, _ = ast.Unparen(n.X).(*ast.CallExpr)
			case *ast.GoStmt:
				call = n.Call
			case *ast.DeferStmt:
				call = n.Call
			default:
				return true
			}
			if call == nil || !returnsError(pass.Info, call) || neverFails(pass.Info, call) {
				return true
			}
			pass.Reportf(call.Pos(), "error result of %s is silently discarded; handle it or discard explicitly with `_ =`", callName(call))
			return true
		})
	}
	return nil
}

// callName renders a short name for the called function.
func callName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if x, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			return x.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "call"
}
