package lint

import (
	"go/ast"
	"go/types"
	"slices"
)

// ArenaEscape checks the lifetime contract of nn.Arena scratch memory
// (PERFORMANCE.md "Arena discipline"): a slice carved from an arena —
// Arena.Vec / Vec32, anything derived from one by slicing or row
// indexing, and anything a helper with an arena parameter hands
// back — is valid only until the owner's next Reset. Storing such a
// slice where it outlives the prediction (a struct field, a package
// variable, a channel) or returning it from a function that does not
// take the arena as a parameter silently serves one request's
// activations to another once the arena rewinds.
//
// Flagged shapes:
//
//	s.buf = a.Vec(n)                 // field store outlives Reset
//	global = a.Vec(n)[:2]            // derived slice, same memory
//	ch <- k.enc.InferPlan(p, a)      // helper result is arena-backed
//	func f() nn.Vec {                // no arena parameter: the arena's
//	    a := pool.Get().(*nn.Arena)  // owner resets it after f returns
//	    return a.Vec(4)
//	}
//
// Conforming shapes:
//
//	func carve(a *nn.Arena, n int) nn.Vec { return a.Vec(n) }
//	    // arena flows in, so the caller owns the lifetime; the
//	    // function exports a "returns arena-backed memory" fact and
//	    // its call sites are checked instead
//	x := v[0]                        // scalar loads copy the value
//
// The analysis is an intra-procedural forward dataflow over go/types
// with function-summary facts: helpers in internal/nn (and any package)
// that return arena-backed memory propagate taint to their callers in
// widedeep, serve, and rl through the fact store (facts.go). Bodies of
// Arena's own methods are the implementation and are skipped.
var ArenaEscape = &Analyzer{
	Name:  "arenaescape",
	Doc:   "arena-carved memory must not outlive the arena's Reset (no field/global/channel stores, no returns without the arena as a parameter)",
	Run:   runArenaEscape,
	Facts: arenaEscapeFacts,
}

// arenaCarvers are the Arena methods that hand out carved memory.
var arenaCarvers = map[string]bool{"Vec": true, "Vec32": true}

// arenaEscapeFacts records, for every function with an *nn.Arena
// parameter (or receiver), which result indices return arena-backed
// memory. Helpers chain (MLP.Infer returns Linear.Infer's result), so
// extraction iterates to a fixpoint within the package; cross-package
// chains resolve through dependency-order driving.
func arenaEscapeFacts(pass *Pass) error {
	for changed := true; changed; {
		changed = false
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || isArenaMethod(pass, fd) {
					continue
				}
				fn, _ := pass.Info.ObjectOf(fd.Name).(*types.Func)
				if fn == nil || !funcTakesArena(fn) {
					continue
				}
				a := newArenaFlow(pass, fd.Body)
				key := funcFactKey(fn)
				for _, idx := range a.taintedReturns() {
					if addResultIndex(pass.OwnFacts.ArenaReturns, key, idx) {
						changed = true
					}
				}
			}
		}
	}
	return nil
}

func runArenaEscape(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || isArenaMethod(pass, fd) {
				continue
			}
			takesArena := false
			if fn, ok := pass.Info.ObjectOf(fd.Name).(*types.Func); ok {
				takesArena = funcTakesArena(fn)
			}
			checkArenaScope(pass, fd.Body, takesArena)
			// Function literals are their own scopes: a captured arena
			// slice crossing the closure boundary is out of reach for
			// this intra-procedural pass, but carving and leaking
			// entirely inside the literal is not. A literal exports no
			// fact, so one that returns a carve is a finding even when
			// the arena is its parameter: name the helper.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkArenaScope(pass, lit.Body, false)
				}
				return true
			})
		}
	}
	return nil
}

// checkArenaScope runs the taint analysis over one function body and
// reports every escape sink. takesArena says whether the scope receives
// the arena as a parameter, which decides whether tainted returns are a
// recorded fact or a violation.
func checkArenaScope(pass *Pass, body *ast.BlockStmt, takesArena bool) {
	a := newArenaFlow(pass, body)
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // nested literals are separate scopes
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			a.checkAssignSinks(n)
		case *ast.SendStmt:
			if a.tainted(n.Value) {
				pass.Reportf(n.Value.Pos(), "arena-backed slice sent on a channel outlives the arena's Reset; copy it first")
			}
		case *ast.ReturnStmt:
			if takesArena {
				return true // recorded as a fact, checked at call sites
			}
			for _, res := range n.Results {
				if a.tainted(res) {
					pass.Reportf(res.Pos(), "returns arena-backed memory from a function without an arena parameter; the slice is dead after the owner's next Reset — copy it or take the arena as a parameter")
				}
			}
		}
		return true
	})
}

// isArenaMethod reports whether the declaration is a method of nn.Arena
// itself (the implementation owns its internals).
func isArenaMethod(pass *Pass, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	if t := pass.Info.TypeOf(fd.Recv.List[0].Type); t != nil {
		return isNNArena(t)
	}
	return false
}

// funcTakesArena reports whether fn has an *nn.Arena parameter or
// receiver — the helper shape whose returns become facts, not findings.
func funcTakesArena(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if recv := sig.Recv(); recv != nil && isNNArena(recv.Type()) {
		return true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isNNArena(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// addResultIndex records idx under key, reporting whether the set grew.
func addResultIndex(m map[string][]int, key string, idx int) bool {
	for _, have := range m[key] {
		if have == idx {
			return false
		}
	}
	m[key] = append(m[key], idx)
	return true
}

// arenaFlow is the per-scope taint state: the set of local variables
// holding arena-backed memory, computed to a fixpoint over the body's
// assignments.
type arenaFlow struct {
	pass     *Pass
	body     *ast.BlockStmt
	taintSet map[types.Object]bool
}

func newArenaFlow(pass *Pass, body *ast.BlockStmt) *arenaFlow {
	a := &arenaFlow{pass: pass, body: body, taintSet: make(map[types.Object]bool)}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			assign, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			if a.propagateAssign(assign) {
				changed = true
			}
			return true
		})
		// Range statements over tainted []Vec bind tainted rows.
		ast.Inspect(body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			rng, ok := n.(*ast.RangeStmt)
			if !ok || rng.Value == nil || !a.tainted(rng.X) {
				return true
			}
			if id, ok := ast.Unparen(rng.Value).(*ast.Ident); ok && sliceTyped(a.pass.Info.TypeOf(id)) {
				if obj := a.pass.Info.ObjectOf(id); obj != nil && !a.taintSet[obj] {
					a.taintSet[obj] = true
					changed = true
				}
			}
			return true
		})
	}
	return a
}

// propagateAssign marks locals assigned arena-backed values, reporting
// whether the taint set grew.
func (a *arenaFlow) propagateAssign(assign *ast.AssignStmt) bool {
	changed := false
	mark := func(lhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := a.pass.Info.ObjectOf(id)
		if obj == nil || isPackageLevel(obj) || a.taintSet[obj] {
			return
		}
		a.taintSet[obj] = true
		changed = true
	}
	if len(assign.Rhs) == 1 && len(assign.Lhs) > 1 {
		// Tuple assignment from one call: taint index-wise via facts.
		if call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr); ok {
			for _, idx := range a.arenaResultIndices(call) {
				if idx < len(assign.Lhs) {
					mark(assign.Lhs[idx])
				}
			}
		}
		return changed
	}
	for i, rhs := range assign.Rhs {
		if i < len(assign.Lhs) && a.tainted(rhs) {
			mark(assign.Lhs[i])
		}
	}
	return changed
}

// checkAssignSinks reports assignments that store a tainted value where
// it outlives the arena: struct fields, package-level variables, and
// elements of either.
func (a *arenaFlow) checkAssignSinks(assign *ast.AssignStmt) {
	for i, lhs := range assign.Lhs {
		rhs := assign.Rhs[0]
		if len(assign.Rhs) > 1 {
			if i >= len(assign.Rhs) {
				continue
			}
			rhs = assign.Rhs[i]
		} else if len(assign.Lhs) > 1 {
			// Tuple call: sinks require per-index taint.
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !containsIndex(a.arenaResultIndices(call), i) {
				continue
			}
			a.reportSink(lhs)
			continue
		}
		if !a.tainted(rhs) {
			continue
		}
		a.reportSink(lhs)
	}
}

func (a *arenaFlow) reportSink(lhs ast.Expr) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if fieldKeyOf(a.pass.Info, l) != "" {
			a.pass.Reportf(l.Pos(), "arena-backed slice stored in struct field %s outlives the arena's Reset; copy it or carve from the heap", l.Sel.Name)
		}
	case *ast.Ident:
		if obj := a.pass.Info.ObjectOf(l); isPackageLevel(obj) {
			a.pass.Reportf(l.Pos(), "arena-backed slice stored in package variable %s outlives the arena's Reset; copy it or carve from the heap", l.Name)
		}
	case *ast.IndexExpr:
		// Element store into a container that itself escapes (field or
		// global): same lifetime bug one level down.
		if base := baseIdent(l.X); base != nil {
			if obj := a.pass.Info.ObjectOf(base); isPackageLevel(obj) {
				a.pass.Reportf(l.Pos(), "arena-backed slice stored in package-level container %s outlives the arena's Reset; copy it first", base.Name)
				return
			}
		}
		if sel, ok := ast.Unparen(l.X).(*ast.SelectorExpr); ok && fieldKeyOf(a.pass.Info, sel) != "" && !a.tainted(l.X) {
			a.pass.Reportf(l.Pos(), "arena-backed slice stored in struct field %s outlives the arena's Reset; copy it first", sel.Sel.Name)
		}
	}
}

// tainted reports whether the expression evaluates to arena-backed
// memory.
func (a *arenaFlow) tainted(expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		obj := a.pass.Info.ObjectOf(e)
		return obj != nil && a.taintSet[obj]
	case *ast.CallExpr:
		if isArenaCarveCall(a.pass.Info, e) {
			return true
		}
		if indices := a.arenaResultIndices(e); containsIndex(indices, 0) && singleResult(a.pass.Info, e) {
			return true
		}
		// append with any arena-backed argument is arena-backed: a
		// tainted destination may be grown in place, and a tainted
		// slice stored or spread as an element keeps its header.
		// (Spreading tainted scalars does copy them out; copy() into
		// a made slice is the form that says so.)
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if b, ok := a.pass.Info.ObjectOf(id).(*types.Builtin); ok && b.Name() == "append" {
				return slices.ContainsFunc(e.Args, a.tainted)
			}
		}
		return false
	case *ast.SliceExpr:
		return a.tainted(e.X)
	case *ast.IndexExpr:
		// Rows of a carved []Vec stay arena memory; scalar element
		// loads copy the value out.
		return a.tainted(e.X) && sliceTyped(a.pass.Info.TypeOf(e))
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if a.tainted(elt) {
				return true
			}
		}
	}
	return false
}

// taintedReturns lists result indices returned tainted anywhere in the
// body (for fact extraction in arena-parameter helpers).
func (a *arenaFlow) taintedReturns() []int {
	var out []int
	ast.Inspect(a.body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for i, res := range ret.Results {
			if a.tainted(res) && !containsIndex(out, i) {
				out = append(out, i)
			}
		}
		return true
	})
	return out
}

// arenaResultIndices returns the result indices of the call that carry
// arena-backed memory according to the callee's fact.
func (a *arenaFlow) arenaResultIndices(call *ast.CallExpr) []int {
	key, pf := factsForCall(a.pass, call)
	if pf == nil {
		return nil
	}
	return pf.ArenaReturns[key]
}

// isArenaCarveCall matches a.Vec(n) / a.Vec32(n) on an nn.Arena
// receiver.
func isArenaCarveCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || !arenaCarvers[fn.Name()] || !isNNPkg(fn.Pkg()) {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && isNNArena(sig.Recv().Type())
}

// sliceTyped reports whether t is a slice (arena taint rides the
// backing array; scalars copy out).
func sliceTyped(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

func singleResult(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok {
		return false
	}
	_, isTuple := tv.Type.(*types.Tuple)
	return !isTuple
}

func containsIndex(s []int, idx int) bool {
	for _, v := range s {
		if v == idx {
			return true
		}
	}
	return false
}
