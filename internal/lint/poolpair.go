package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// PoolPair checks that every value taken from a sync.Pool goes back:
// after `v := Get` — a direct (sync.Pool).Get or a call to a getter
// wrapper like serve.getEstScratch — a Put of v on the same pool (direct,
// or through a putter wrapper) must come, in the Get's own block, before
// anything that can leave the block. A path that drops the value
// silently defeats the pooling that the zero-allocation serving contract
// (PERFORMANCE.md) rests on, and a pool that slowly "drains" this way is
// invisible to every test that samples only the happy path.
//
// The rule looks at one statement list — what follows the Get in its
// block (the then-branch for a comma-ok Get in an if-init) — and follows
// no path. Reading it top down, the first of these decides:
//
//	defer p.Put(v)  or  p.Put(v)    // paired: silent
//	return v                        // handed to the caller: silent
//	a statement containing a return, break, continue or goto
//	                                // reported at that exit
//	the end of the list             // reported at the Get
//
// So these are flagged:
//
//	s := p.Get().(*T)
//	if err != nil { return }    // leaves before the Put
//	p.Put(s)
//
//	s := p.Get().(*T)
//	if bad { p.Put(s); return } // a Put inside a branch proves nothing
//	p.Put(s)                    // about the other branch: not counted
//
//	p.Get()                     // result discarded outright
//
// and the fix is always the same: `defer p.Put(s)` on the line after the
// Get. A panic is not an exit (the value is garbage either way), and a
// return inside a function literal leaves the literal, not the block.
// A drop that is deliberate — a retention cap, a buffer still under a
// live writer — takes a //lint:allow poolpair(audit) waiver naming the
// reason (LINTING.md "Audit notes"). The rule fails closed: a shape it
// does not recognize (a Put in every arm of a switch, a store into a
// field) is a finding, never silence.
//
// Getter/putter wrappers propagate across packages through the fact
// store (facts.go), so a pool wrapped in one package is paired at call
// sites in another; a getter's own `return p.Get()` is not an
// assignment and is checked at its callers.
var PoolPair = &Analyzer{
	Name:  "poolpair",
	Doc:   "after v := Get, a Put of v (or return v) must come before any statement that can leave the block; otherwise defer the Put",
	Run:   runPoolPair,
	Facts: poolPairFacts,
}

// poolPairFacts records getter wrappers (a function returning a
// pool.Get result) and putter wrappers (a function passing a parameter
// to pool.Put) so callers pair them like the pool's own methods.
// Wrappers can chain through other wrappers, so extraction iterates to
// a fixpoint within the package.
func poolPairFacts(pass *Pass) error {
	for changed := true; changed; {
		changed = false
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pass.Info.ObjectOf(fd.Name).(*types.Func)
				if fn == nil {
					continue
				}
				key := funcFactKey(fn)
				if pool := getterPool(pass, fd); pool != "" && pass.OwnFacts.PoolGetters[key] != pool {
					pass.OwnFacts.PoolGetters[key] = pool
					changed = true
				}
				if pf, ok := putterFact(pass, fd, fn); ok && pass.OwnFacts.PoolPutters[key] != pf {
					pass.OwnFacts.PoolPutters[key] = pf
					changed = true
				}
			}
		}
	}
	return nil
}

// getterPool returns the pool key a function hands values out of, or
// "": some return statement must return (a variable holding) the result
// of a pool Get or of another getter.
func getterPool(pass *Pass, fd *ast.FuncDecl) string {
	// Locals assigned from a Get (through type assertions), by object.
	pooled := make(map[types.Object]string)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range assign.Rhs {
			pool := poolGetKey(pass, rhs)
			if pool == "" || i >= len(assign.Lhs) {
				continue
			}
			if id, ok := ast.Unparen(assign.Lhs[i]).(*ast.Ident); ok && id.Name != "_" {
				if obj := pass.Info.ObjectOf(id); obj != nil {
					pooled[obj] = pool
				}
			}
		}
		return true
	})
	found := ""
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || found != "" {
			return found == ""
		}
		for _, res := range ret.Results {
			if pool := poolGetKey(pass, res); pool != "" {
				found = pool
				return false
			}
			if id, ok := ast.Unparen(res).(*ast.Ident); ok {
				if pool := pooled[pass.Info.ObjectOf(id)]; pool != "" {
					found = pool
					return false
				}
			}
		}
		return true
	})
	return found
}

// putterFact reports whether some parameter of the function reaches a
// pool Put (direct or via another putter).
func putterFact(pass *Pass, fd *ast.FuncDecl, fn *types.Func) (PutterFact, bool) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return PutterFact{}, false
	}
	params := make(map[types.Object]int)
	for i := 0; i < sig.Params().Len(); i++ {
		params[sig.Params().At(i)] = i
	}
	var (
		out   PutterFact
		found bool
	)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		pool, argIdx := poolPutSink(pass, call)
		if pool == "" || argIdx >= len(call.Args) {
			return true
		}
		if id, ok := ast.Unparen(call.Args[argIdx]).(*ast.Ident); ok {
			if idx, isParam := params[pass.Info.ObjectOf(id)]; isParam {
				out = PutterFact{Pool: pool, Param: idx}
				found = true
				return false
			}
		}
		return true
	})
	return out, found
}

// poolGetKey returns the pool key when expr is (a type assertion over)
// a pool Get or a getter-fact call, else "".
func poolGetKey(pass *Pass, expr ast.Expr) string {
	switch e := ast.Unparen(expr).(type) {
	case *ast.TypeAssertExpr:
		return poolGetKey(pass, e.X)
	case *ast.CallExpr:
		fn := calleeFunc(pass.Info, e)
		if fn == nil {
			return ""
		}
		if isSyncPoolMethod(fn, "Get") {
			if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
				return poolKeyOf(pass.Info, sel.X)
			}
			return ""
		}
		if key, pf := factsForCall(pass, e); pf != nil {
			return pf.PoolGetters[key]
		}
	}
	return ""
}

// poolPutSink returns the pool key and argument index when call is a
// pool Put or a putter-fact call, else ("", 0).
func poolPutSink(pass *Pass, call *ast.CallExpr) (string, int) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil {
		return "", 0
	}
	if isSyncPoolMethod(fn, "Put") {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			return poolKeyOf(pass.Info, sel.X), 0
		}
		return "", 0
	}
	if key, pf := factsForCall(pass, call); pf != nil {
		if putter, ok := pf.PoolPutters[key]; ok {
			return putter.Pool, putter.Param
		}
	}
	return "", 0
}

func runPoolPair(pass *Pass) error {
	for _, f := range pass.Files {
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				checkPoolAssign(pass, n, stack)
			case *ast.ExprStmt:
				// A bare `p.Get()` statement drops the value on the spot.
				if pool := poolGetKey(pass, n.X); pool != "" {
					pass.Reportf(n.Pos(), "result of Get from pool %s is discarded; the pooled value can never be Put back", shortKey(pool))
				}
			}
			return true
		})
	}
	return nil
}

// checkPoolAssign applies the block rule to each `v := Get` of one
// assignment.
func checkPoolAssign(pass *Pass, assign *ast.AssignStmt, stack []ast.Node) {
	for i, rhs := range assign.Rhs {
		pool := poolGetKey(pass, rhs)
		if pool == "" || i >= len(assign.Lhs) {
			continue
		}
		id, ok := ast.Unparen(assign.Lhs[i]).(*ast.Ident)
		if !ok {
			continue
		}
		if id.Name == "_" {
			pass.Reportf(rhs.Pos(), "result of Get from pool %s assigned to _; the pooled value can never be Put back", shortKey(pool))
			continue
		}
		v := pass.Info.ObjectOf(id)
		if v == nil {
			continue
		}
		switch exit, paired := firstExit(pass, v, pool, stmtsAfter(assign, stack)); {
		case paired:
		case exit == token.NoPos:
			pass.Reportf(rhs.Pos(), "pooled value %s from pool %s never reaches a Put before its block ends; `defer` the Put right after the Get", id.Name, shortKey(pool))
		default:
			pass.Reportf(exit, "pooled value %s from pool %s is not returned to the pool on this path; `defer` the Put right after the Get, or waive with //lint:allow poolpair", id.Name, shortKey(pool))
		}
	}
}

// stmtsAfter returns the statements that follow the Get assignment in
// its own statement list. A comma-ok Get in an if-init
// (`if v, ok := p.Get().(*T); ok { ... }`) carries the value only into
// the then-branch, so the list is that branch. Any other position (a
// switch or for init) has no list: nil, which the caller reports.
func stmtsAfter(assign *ast.AssignStmt, stack []ast.Node) []ast.Stmt {
	var list []ast.Stmt
	switch parent := stack[len(stack)-1].(type) {
	case *ast.BlockStmt:
		list = parent.List
	case *ast.CaseClause:
		list = parent.Body
	case *ast.CommClause:
		list = parent.Body
	case *ast.IfStmt: // the assignment is its Init
		return parent.Body.List
	}
	for i, s := range list {
		if s == assign {
			return list[i+1:]
		}
	}
	return nil
}

// firstExit scans the statements after a Get of v in order. It reports
// paired when a Put of v (plain or deferred, direct or through a putter
// fact) or a `return v` comes before any statement from which control
// can leave the list; otherwise exit is the first return, break,
// continue or goto inside such a statement, or NoPos when the list
// simply ends. No path is followed: a Put nested in a branch proves
// nothing about the other branches, so it does not count.
func firstExit(pass *Pass, v types.Object, pool string, stmts []ast.Stmt) (exit token.Pos, paired bool) {
	isV := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && pass.Info.ObjectOf(id) == v
	}
	for _, s := range stmts {
		var call *ast.CallExpr
		switch s := s.(type) {
		case *ast.DeferStmt:
			call = s.Call
		case *ast.ExprStmt:
			call, _ = ast.Unparen(s.X).(*ast.CallExpr)
		case *ast.ReturnStmt:
			if slices.ContainsFunc(s.Results, isV) {
				return token.NoPos, true // handed to the caller (getter wrapper shape)
			}
		}
		if call != nil {
			if p, arg := poolPutSink(pass, call); p == pool && arg < len(call.Args) && isV(call.Args[arg]) {
				return token.NoPos, true
			}
		}
		ast.Inspect(s, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false // its returns leave the literal, not this function
			case *ast.ReturnStmt:
				exit = n.Pos()
			case *ast.BranchStmt:
				if n.Tok != token.FALLTHROUGH {
					exit = n.Pos()
				}
			}
			return exit == token.NoPos
		})
		if exit != token.NoPos {
			return exit, false
		}
	}
	return token.NoPos, false
}

// shortKey trims the package path from a pool key for readable
// diagnostics (autoview/internal/serve.estPool -> serve.estPool).
func shortKey(key string) string {
	return key[strings.LastIndexByte(key, '/')+1:]
}
