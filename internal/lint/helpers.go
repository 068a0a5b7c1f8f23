package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// calleeFunc resolves the function or method object a call invokes, or
// nil for calls through function values, builtins, and conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.ObjectOf(id).(*types.Func)
	return fn
}

// isRandPkg reports whether pkg is math/rand or math/rand/v2.
func isRandPkg(pkg *types.Package) bool {
	return pkg != nil && (pkg.Path() == "math/rand" || pkg.Path() == "math/rand/v2")
}

// isObsPkg reports whether pkg is the repo's observability package. The
// suffix match lets analysistest-style fixtures supply a shim package
// named obs under a short import path.
func isObsPkg(pkg *types.Package) bool {
	if pkg == nil || pkg.Name() != "obs" {
		return false
	}
	return pkg.Path() == "obs" || strings.HasSuffix(pkg.Path(), "internal/obs")
}

// isFloat reports whether t's core type is a floating-point scalar.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isRandRand reports whether t is *rand.Rand (math/rand or v2).
func isRandRand(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Rand" && isRandPkg(named.Obj().Pkg())
}

// returnsError reports whether the call's result tuple contains an
// error (it does for `func() error` and `func() (T, error)` alike).
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// enclosingFunc returns the innermost function body on the stack.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// funcBody returns the body of a FuncDecl or FuncLit.
func funcBody(fn ast.Node) *ast.BlockStmt {
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		return fn.Body
	case *ast.FuncLit:
		return fn.Body
	}
	return nil
}

// inspectWithStack walks root, calling f with each node and the stack
// of its ancestors (not including n itself). Returning false skips the
// node's children.
func inspectWithStack(root ast.Node, f func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		ok := f(n, stack)
		stack = append(stack, n)
		if !ok {
			// Children are skipped, so the pop callback never fires.
			stack = stack[:len(stack)-1]
		}
		return ok
	})
}

// declaredWithin reports whether obj's declaration lies inside node.
func declaredWithin(obj types.Object, node ast.Node) bool {
	return obj != nil && node != nil && obj.Pos() >= node.Pos() && obj.Pos() <= node.End()
}

// isNNPkg reports whether pkg is the repo's neural-network package. The
// suffix match lets fixtures supply a shim package named nn under a
// short import path (mirroring isObsPkg).
func isNNPkg(pkg *types.Package) bool {
	if pkg == nil || pkg.Name() != "nn" {
		return false
	}
	return pkg.Path() == "nn" || strings.HasSuffix(pkg.Path(), "internal/nn")
}

// isNNArena reports whether t is nn.Arena or *nn.Arena.
func isNNArena(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Arena" && isNNPkg(named.Obj().Pkg())
}

// isSyncPool reports whether t is sync.Pool or *sync.Pool.
func isSyncPool(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Pool" &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync"
}

// isSyncPoolMethod reports whether fn is (*sync.Pool).<name>. Any other
// method of that name — nn.ArenaPool's Get and Put — is a wrapper, paired
// through its getter/putter fact.
func isSyncPoolMethod(fn *types.Func, name string) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && fn.Name() == name && sig.Recv() != nil && isSyncPool(sig.Recv().Type())
}

// namedTypeOf unwraps pointers and returns the named type of t, or nil.
func namedTypeOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// poolKeyOf returns a stable key identifying which sync.Pool value the
// expression denotes: "<pkg>.<var>" for a package-level pool variable,
// "<pkg>.<Type>.<field>" for a pool struct field, "" when the pool
// cannot be identified (a local pool value or an indexed element —
// untracked rather than misattributed).
func poolKeyOf(info *types.Info, expr ast.Expr) string {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		obj := info.ObjectOf(e)
		if obj == nil || obj.Pkg() == nil {
			return ""
		}
		if obj.Parent() == obj.Pkg().Scope() { // package-level var
			return obj.Pkg().Path() + "." + obj.Name()
		}
	case *ast.SelectorExpr:
		sel, ok := info.Selections[e]
		if !ok || sel.Kind() != types.FieldVal {
			return ""
		}
		field := sel.Obj()
		named := namedTypeOf(sel.Recv())
		if named == nil || field.Pkg() == nil {
			return ""
		}
		return field.Pkg().Path() + "." + named.Obj().Name() + "." + field.Name()
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return poolKeyOf(info, e.X)
		}
	}
	return ""
}

// fieldKeyOf returns the cross-package key of the struct field a
// selector resolves to ("<pkg>.<Type>.<Field>"), or "" for non-field
// selections.
func fieldKeyOf(info *types.Info, sel *ast.SelectorExpr) string {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return ""
	}
	field := s.Obj()
	named := namedTypeOf(s.Recv())
	if named == nil || field.Pkg() == nil {
		return ""
	}
	return field.Pkg().Path() + "." + named.Obj().Name() + "." + field.Name()
}

// baseIdent returns the leftmost identifier of a selector/index chain
// (x in x.f[i].g), or nil.
func baseIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// isPackageLevel reports whether obj is a package-scope object.
func isPackageLevel(obj types.Object) bool {
	return obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}
