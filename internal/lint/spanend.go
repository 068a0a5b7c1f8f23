package lint

import (
	"go/ast"
	"go/types"
)

// SpanEnd checks that every span opened with obs.StartSpan (package
// function or (*obs.Registry).StartSpan method) or with a resolved
// span's (*obs.Span).Begin is completed: the returned stop closure must
// be deferred or called, and the start time Begin returns must reach an
// End. A started-but-never-ended span records nothing — the histogram
// silently loses the stage — which is exactly the failure mode
// OBSERVABILITY.md's catalog is meant to rule out.
//
// Accepted shapes:
//
//	defer obs.StartSpan("x")()          // canonical
//	stop := obs.StartSpan("x"); ... stop()  // or defer stop()
//	defer sp.End(sp.Begin())            // canonical for a resolved span
//	start := sp.Begin(); ... sp.End(start)
//
// Flagged shapes:
//
//	obs.StartSpan("x")       // stop closure discarded
//	_ = obs.StartSpan("x")   // ditto, explicitly
//	stop := obs.StartSpan("x") // stop never called on any path
//	sp.Begin(), _ = sp.Begin(), defer sp.Begin() // start time discarded
//
// A stop closure or start time that escapes (stored in a struct, passed
// along, returned) is assumed handled.
var SpanEnd = &Analyzer{
	Name: "spanend",
	Doc:  "every obs.StartSpan span must be ended on all paths, normally by defer",
	Run:  runSpanEnd,
}

func runSpanEnd(pass *Pass) error {
	for _, f := range pass.Files {
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isStartSpanCall(pass.Info, call) {
				checkSpanUse(pass, call, stack, startSpanMsgs)
			} else if isSpanBeginCall(pass.Info, call) {
				checkSpanUse(pass, call, stack, beginMsgs)
			}
			return true
		})
	}
	return nil
}

// isStartSpanCall matches obs.StartSpan(...) and r.StartSpan(...) for
// *obs.Registry r.
func isStartSpanCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Name() != "StartSpan" || !isObsPkg(fn.Pkg()) {
		return false
	}
	return true
}

// isSpanBeginCall matches sp.Begin() for *obs.Span sp.
func isSpanBeginCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Name() != "Begin" || !isObsPkg(fn.Pkg()) {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Span"
}

// spanMsgs words the diagnostics for one kind of span opening; each
// takes the opening call's text.
type spanMsgs struct {
	discarded, deferred, blank, unused string
}

var (
	startSpanMsgs = spanMsgs{
		discarded: "result of StartSpan is discarded, so the span is never ended; use `defer %s()`",
		deferred:  "result of StartSpan is discarded, so the span is never ended; did you mean `defer %s()`?",
		blank:     "stop closure of StartSpan assigned to _, so the span is never ended",
		unused:    "stop closure %s of StartSpan is never called, so the span is never ended; add `defer %s()`",
	}
	beginMsgs = spanMsgs{
		discarded: "start time of Span.Begin is discarded, so the span is never ended; use `defer %[1]s.End(%[1]s.Begin())`",
		deferred:  "start time of Span.Begin is discarded, so the span is never ended; did you mean `defer %[1]s.End(%[1]s.Begin())`?",
		blank:     "start time of Span.Begin assigned to _, so the span is never ended",
		unused:    "start time %s of Span.Begin is never passed on, so the span is never ended; add `defer <span>.End(%s)`",
	}
)

func checkSpanUse(pass *Pass, call *ast.CallExpr, stack []ast.Node, msgs spanMsgs) {
	if len(stack) == 0 {
		return
	}
	switch parent := stack[len(stack)-1].(type) {
	case *ast.ExprStmt:
		pass.Reportf(call.Pos(), msgs.discarded, spanOpener(call))
	case *ast.CallExpr:
		// `obs.StartSpan("x")()` — the span is ended (immediately,
		// which is odd but balanced) — or `sp.End(sp.Begin())`, or the
		// closure or start time is an argument and escapes; either way
		// it is accounted for.
	case *ast.DeferStmt, *ast.GoStmt:
		// `defer obs.StartSpan("x")` defers the *start* and discards
		// the stop closure — almost certainly a missing trailing ();
		// `defer sp.Begin()` likewise drops its start time.
		pass.Reportf(call.Pos(), msgs.deferred, spanOpener(call))
	case *ast.AssignStmt:
		checkSpanAssign(pass, call, parent, stack, msgs)
	default:
		// defer obs.StartSpan("x")() reaches here as the CallExpr case
		// (the deferred call's Fun); other contexts (return, composite
		// literal, channel send) let the closure escape — assume the
		// receiver ends it.
	}
}

func checkSpanAssign(pass *Pass, call *ast.CallExpr, assign *ast.AssignStmt, stack []ast.Node, msgs spanMsgs) {
	// Locate which LHS receives the stop closure.
	idx := -1
	for i, rhs := range assign.Rhs {
		if ast.Unparen(rhs) == call {
			idx = i
			break
		}
	}
	if idx < 0 || idx >= len(assign.Lhs) {
		return
	}
	lhs, ok := ast.Unparen(assign.Lhs[idx]).(*ast.Ident)
	if !ok {
		return // stored through a field or index: escapes, assume handled
	}
	if lhs.Name == "_" {
		pass.Reportf(call.Pos(), "%s", msgs.blank)
		return
	}
	obj := pass.Info.ObjectOf(lhs)
	fn := enclosingFunc(stack)
	if obj == nil || fn == nil {
		return
	}
	if !stopUsed(pass.Info, funcBody(fn), obj, lhs) {
		pass.Reportf(call.Pos(), msgs.unused, lhs.Name, lhs.Name)
	}
}

// stopUsed reports whether the stop-closure object is called, deferred,
// or escapes (any use other than its defining identifier counts as
// potentially ending the span; the compiler already rejects fully
// unused variables, so the interesting case is zero uses besides
// re-assignment).
func stopUsed(info *types.Info, body *ast.BlockStmt, obj types.Object, def *ast.Ident) bool {
	if body == nil {
		return true
	}
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || id == def || info.ObjectOf(id) != obj {
			return !used
		}
		used = true
		return false
	})
	return used
}

// spanOpener names the opening call for a diagnostic: "obs.StartSpan(...)"
// for a StartSpan call, the span's receiver ("sp") for a Begin.
func spanOpener(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "StartSpan(...)"
	}
	x, isIdent := sel.X.(*ast.Ident)
	switch {
	case sel.Sel.Name == "Begin" && isIdent:
		return x.Name
	case sel.Sel.Name == "Begin":
		return "sp"
	case isIdent:
		return x.Name + "." + sel.Sel.Name + "(...)"
	}
	return "StartSpan(...)"
}
