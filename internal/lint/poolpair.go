package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolPair checks that every value taken from a sync.Pool goes back:
// each Get — a direct (sync.Pool).Get or a call to a getter wrapper
// like serve.getEstScratch — must reach a Put on the same pool (direct,
// or through a putter wrapper) on every path to the function's exit. A
// path that drops the value silently defeats the pooling that the
// zero-allocation serving contract (PERFORMANCE.md) rests on, and a
// pool that slowly "drains" this way is invisible to every test that
// samples only the happy path.
//
// Flagged shapes:
//
//	s := p.Get().(*T)
//	if err != nil { return }    // leaks s on the error path
//	p.Put(s)
//
//	p.Get()                     // result discarded outright
//
// Conforming shapes:
//
//	s := p.Get().(*T)
//	defer p.Put(s)              // covers every exit
//
//	s := p.Get().(*T)
//	if cap(s.b) > max { return }  // retention-cap drop idiom: a
//	p.Put(s)                      // deliberate shed of an oversized
//	                              // buffer is part of the discipline
//
//	func get() *T { return p.Get().(*T) }  // wrapper: exports a
//	    // getter fact; its callers are checked instead
//
// Ownership transfers end the obligation: returning the value, storing
// it into a struct field / global / channel, and panicking paths are
// all treated as handled. Deliberate drops outside the cap idiom need
// a //lint:allow poolpair waiver naming the reason (use the
// poolpair(audit) tag for vetted drop sites; LINTING.md "Audit notes").
//
// Getter/putter wrappers propagate across packages through the fact
// store (facts.go), so a pool wrapped in one package is paired at call
// sites in another.
var PoolPair = &Analyzer{
	Name:  "poolpair",
	Doc:   "every sync.Pool Get must reach a matching Put on all paths (retention-cap drops recognized)",
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
			assign, ok := n.(*ast.AssignStmt)
			if ok {
				checkPoolAssign(pass, assign, stack)
				return true
			}
			// A bare `p.Get()` statement drops the value on the spot.
			if es, ok := n.(*ast.ExprStmt); ok {
				if pool := poolGetKey(pass, es.X); pool != "" {
					pass.Reportf(es.Pos(), "result of Get from pool %s is discarded; the pooled value can never be Put back", shortKey(pool))
				}
			}
			return true
		})
	}
	return nil
}

// checkPoolAssign drives the leak-path analysis for one `v := Get`.
func checkPoolAssign(pass *Pass, assign *ast.AssignStmt, stack []ast.Node) {
	fnNode := enclosingFunc(stack)
	body := funcBody(fnNode)
	if body == nil {
		return
	}
	for i, rhs := range assign.Rhs {
		pool := poolGetKey(pass, rhs)
		if pool == "" || i >= len(assign.Lhs) {
			continue
		}
		id, ok := ast.Unparen(assign.Lhs[i]).(*ast.Ident)
		if !ok || id.Name == "_" {
			if ok { // explicitly blanked
				pass.Reportf(rhs.Pos(), "result of Get from pool %s assigned to _; the pooled value can never be Put back", shortKey(pool))
			}
			continue
		}
		obj := pass.Info.ObjectOf(id)
		if obj == nil {
			continue
		}
		c := &poolLeakCheck{pass: pass, v: obj, pool: pool, getPos: rhs.Pos(), budget: 4096}
		seq, fromIfInit := continuationAfterGet(body, assign, stack)
		if seq == nil && !fromIfInit {
			continue
		}
		for _, leak := range dedupePos(c.leaks(seq)) {
			if leak == c.getPos {
				pass.Reportf(leak, "pooled value %s from pool %s never reaches a Put before the function exits", id.Name, shortKey(pool))
			} else {
				pass.Reportf(leak, "pooled value %s from pool %s is not returned to the pool on this path; Put it, or waive with //lint:allow poolpair", id.Name, shortKey(pool))
			}
		}
	}
}

// continuationAfterGet builds the linear statement continuation that
// executes after the Get assignment: the rest of every enclosing block
// from the innermost out. A comma-ok Get in an if-init
// (`if v, ok := p.Get().(*T); ok { ... }`) carries the value only into
// the then-branch, so the continuation starts there.
func continuationAfterGet(body *ast.BlockStmt, assign *ast.AssignStmt, stack []ast.Node) ([]ast.Stmt, bool) {
	// If-init form: the assignment's parent is the IfStmt itself.
	if len(stack) > 0 {
		if ifs, ok := stack[len(stack)-1].(*ast.IfStmt); ok && ifs.Init == assign {
			rest, found := continuationAfter(body.List, ifs)
			if !found {
				rest = nil
			}
			return append(append([]ast.Stmt{}, ifs.Body.List...), rest...), true
		}
	}
	rest, found := continuationAfter(body.List, assign)
	if !found {
		return nil, false
	}
	return rest, false
}

// continuationAfter returns the statements that execute after target
// finishes, flattened innermost-first, when target (or a statement
// containing it) is found in list.
func continuationAfter(list []ast.Stmt, target ast.Stmt) ([]ast.Stmt, bool) {
	for i, s := range list {
		if s == target {
			return append([]ast.Stmt{}, list[i+1:]...), true
		}
		if inner, ok := continuationWithin(s, target); ok {
			return append(inner, list[i+1:]...), true
		}
	}
	return nil, false
}

func continuationWithin(s ast.Stmt, target ast.Stmt) ([]ast.Stmt, bool) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return continuationAfter(s.List, target)
	case *ast.IfStmt:
		if cont, ok := continuationAfter(s.Body.List, target); ok {
			return cont, true
		}
		if s.Else != nil {
			if cont, ok := continuationWithin(s.Else, target); ok {
				return cont, true
			}
			if cont, ok := continuationAfter(elseStmts(s.Else), target); ok {
				return cont, true
			}
		}
	case *ast.ForStmt:
		return continuationAfter(s.Body.List, target)
	case *ast.RangeStmt:
		return continuationAfter(s.Body.List, target)
	case *ast.SwitchStmt:
		return continuationInClauses(s.Body, target)
	case *ast.TypeSwitchStmt:
		return continuationInClauses(s.Body, target)
	case *ast.SelectStmt:
		return continuationInClauses(s.Body, target)
	case *ast.LabeledStmt:
		if s.Stmt == target {
			return nil, true
		}
		return continuationWithin(s.Stmt, target)
	}
	return nil, false
}

func continuationInClauses(body *ast.BlockStmt, target ast.Stmt) ([]ast.Stmt, bool) {
	for _, clause := range body.List {
		var stmts []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			stmts = c.Body
		case *ast.CommClause:
			stmts = c.Body
		}
		if cont, ok := continuationAfter(stmts, target); ok {
			return cont, true
		}
	}
	return nil, false
}

// poolLeakCheck walks the continuation of a Get, collecting the exit
// positions the pooled value can leak through.
type poolLeakCheck struct {
	pass   *Pass
	v      types.Object
	pool   string
	getPos token.Pos
	budget int
}

// leaks returns the positions of paths through seq that exit without a
// Put (token.NoPos never appears; the Get position marks falling off
// the end of the function).
func (c *poolLeakCheck) leaks(seq []ast.Stmt) []token.Pos {
	c.budget--
	if c.budget < 0 {
		return nil // pathological branching: stay silent, never flaky
	}
	for i, s := range seq {
		rest := seq[i+1:]
		switch s := s.(type) {
		case *ast.DeferStmt:
			if pool, argIdx := poolPutSink(c.pass, s.Call); pool == c.pool && c.argIsV(s.Call, argIdx) {
				return nil // defer covers every exit from here on
			}
			if c.valueEscapes(s) {
				return nil
			}
		case *ast.ReturnStmt:
			if c.mentionsV(s) {
				return nil // handed to the caller (getter wrapper shape)
			}
			return []token.Pos{s.Pos()}
		case *ast.BranchStmt:
			return nil // break/continue/goto: out of scope, stay silent
		case *ast.IfStmt:
			if s.Init != nil && c.stmtSatisfies(s.Init) {
				return nil
			}
			if callsBuiltinCap(c.pass.Info, s.Cond) {
				// Retention-cap drop idiom: the guarded branch sheds the
				// value deliberately; only the fall-through path owes a
				// Put.
				continue
			}
			thenSeq := append(append([]ast.Stmt{}, s.Body.List...), rest...)
			elseSeq := rest
			if s.Else != nil {
				elseSeq = append(append([]ast.Stmt{}, elseStmts(s.Else)...), rest...)
			}
			return append(c.leaks(thenSeq), c.leaks(elseSeq)...)
		case *ast.BlockStmt:
			return c.leaks(append(append([]ast.Stmt{}, s.List...), rest...))
		case *ast.SwitchStmt:
			return c.leakClauses(s.Body, rest, !switchHasDefault(s.Body))
		case *ast.TypeSwitchStmt:
			return c.leakClauses(s.Body, rest, !switchHasDefault(s.Body))
		case *ast.SelectStmt:
			// A default-free select blocks until one case runs; there is
			// no implicit fall-through path either way.
			return c.leakClauses(s.Body, rest, false)
		case *ast.ForStmt:
			// One unrolled iteration plus the zero-iterations path: Puts
			// on early-return paths inside the body stay path-local
			// instead of discharging the whole continuation. An infinite
			// loop (no condition) never reaches the continuation.
			bodySeq := append(append([]ast.Stmt{}, s.Body.List...), rest...)
			if s.Cond == nil {
				return c.leaks(bodySeq)
			}
			return append(c.leaks(bodySeq), c.leaks(rest)...)
		case *ast.RangeStmt:
			bodySeq := append(append([]ast.Stmt{}, s.Body.List...), rest...)
			return append(c.leaks(bodySeq), c.leaks(rest)...)
		case *ast.LabeledStmt:
			return c.leaks(append([]ast.Stmt{s.Stmt}, rest...))
		default:
			if c.stmtSatisfies(s) {
				return nil
			}
		}
	}
	// Fell off the end of the function without a Put.
	return []token.Pos{c.getPos}
}

func (c *poolLeakCheck) leakClauses(body *ast.BlockStmt, rest []ast.Stmt, fallThrough bool) []token.Pos {
	var out []token.Pos
	for _, clause := range body.List {
		var stmts []ast.Stmt
		switch cl := clause.(type) {
		case *ast.CaseClause:
			stmts = cl.Body
		case *ast.CommClause:
			stmts = cl.Body
		}
		out = append(out, c.leaks(append(append([]ast.Stmt{}, stmts...), rest...))...)
	}
	if fallThrough {
		out = append(out, c.leaks(rest)...)
	}
	return out
}

// stmtSatisfies reports whether executing s discharges the Put
// obligation on this path: a Put of v, an ownership transfer (store
// into a field / global / channel / container, reassignment of v), or
// an unconditional abort.
func (c *poolLeakCheck) stmtSatisfies(s ast.Stmt) bool {
	if isPanicOrExit(c.pass.Info, s) {
		return true
	}
	satisfied := false
	ast.Inspect(s, func(n ast.Node) bool {
		if satisfied {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			// The value captured by a closure is out of intra-procedural
			// reach; treat the capture as a handoff.
			if c.exprMentionsV(n.Body) {
				satisfied = true
			}
			return false
		case *ast.CallExpr:
			if pool, argIdx := poolPutSink(c.pass, n); pool == c.pool && c.argIsV(n, argIdx) {
				satisfied = true
				return false
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				// v stored somewhere that outlives the function: the
				// new owner inherits the obligation.
				if i < len(n.Rhs) && c.isV(n.Rhs[i]) && !isBlankOrLocalIdent(c.pass.Info, lhs) {
					satisfied = true
					return false
				}
				// v reassigned: tracking ends (conservative).
				if c.isV(lhs) {
					satisfied = true
					return false
				}
			}
		case *ast.SendStmt:
			if c.isV(n.Value) {
				satisfied = true
				return false
			}
		case *ast.GoStmt:
			if c.exprMentionsV(n.Call) {
				satisfied = true
				return false
			}
		}
		return true
	})
	return satisfied
}

// valueEscapes reports whether the statement hands v off through a
// composite/call boundary other than a recognized Put (e.g. deferring a
// closure over v): treated as handled.
func (c *poolLeakCheck) valueEscapes(s ast.Stmt) bool {
	d, ok := s.(*ast.DeferStmt)
	return ok && c.exprMentionsV(d.Call)
}

func (c *poolLeakCheck) argIsV(call *ast.CallExpr, argIdx int) bool {
	return argIdx < len(call.Args) && c.isV(call.Args[argIdx])
}

func (c *poolLeakCheck) isV(expr ast.Expr) bool {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	return ok && c.pass.Info.ObjectOf(id) == c.v
}

func (c *poolLeakCheck) mentionsV(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok && c.pass.Info.ObjectOf(id) == c.v {
			found = true
		}
		return !found
	})
	return found
}

func (c *poolLeakCheck) exprMentionsV(n ast.Node) bool { return c.mentionsV(n) }

func switchHasDefault(body *ast.BlockStmt) bool {
	for _, clause := range body.List {
		if cc, ok := clause.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

func isBlankOrLocalIdent(info *types.Info, lhs ast.Expr) bool {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return false // field/index/deref store: escapes
	}
	if id.Name == "_" {
		return true
	}
	return !isPackageLevel(info.ObjectOf(id))
}

func dedupePos(ps []token.Pos) []token.Pos {
	seen := make(map[token.Pos]bool, len(ps))
	out := ps[:0]
	for _, p := range ps {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// shortKey trims the package path from a pool key for readable
// diagnostics (autoview/internal/serve.estPool -> serve.estPool).
func shortKey(key string) string {
	slash := -1
	for i := 0; i < len(key); i++ {
		if key[i] == '/' {
			slash = i
		}
	}
	return key[slash+1:]
}
