package lint

import (
	"go/ast"
	"go/types"
)

// Cross-package fact plumbing for the resource-discipline analyzers
// (arenaescape, poolpair). A fact is a function summary one package
// exports so its dependents can be checked without re-analyzing the
// dependency: "Linear.Infer returns arena-backed memory", "GetBuf hands
// out a pooled value", "PutBuf returns its parameter to that pool".
// Facts flow in dependency order — RunAnalyzers analyzes a package's
// imports first (topoSort) — so a helper in internal/nn propagates its
// contract to call sites in widedeep, serve, and rl.

// A FactStore holds the fact summaries of every package analyzed so
// far, keyed by import path. The zero value is not usable; call
// NewFactStore.
type FactStore struct {
	Pkgs map[string]*PackageFacts
}

// PackageFacts is one package's exported summaries. All maps use
// package-local keys (see funcFactKey); the enclosing FactStore key
// carries the package path.
type PackageFacts struct {
	// ArenaReturns maps a function key to the result indices that are
	// backed by the *nn.Arena the function takes as a parameter (or
	// receiver). Callers treat those results as arena-carved memory.
	ArenaReturns map[string][]int
	// PoolGetters maps a function key to the pool it hands values out
	// of: the function's first result may come from that pool's Get and
	// must eventually be returned to it.
	PoolGetters map[string]string
	// PoolPutters maps a function key to the pool its parameter is
	// returned to.
	PoolPutters map[string]PutterFact
}

// A PutterFact records that calling the function returns parameter
// Param to pool Pool (so the call balances a Get from the same pool).
type PutterFact struct {
	Pool  string
	Param int
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{Pkgs: make(map[string]*PackageFacts)}
}

// Pkg returns the (created on demand) fact set for the package path.
func (s *FactStore) Pkg(path string) *PackageFacts {
	pf, ok := s.Pkgs[path]
	if !ok {
		pf = &PackageFacts{
			ArenaReturns: make(map[string][]int),
			PoolGetters:  make(map[string]string),
			PoolPutters:  make(map[string]PutterFact),
		}
		s.Pkgs[path] = pf
	}
	return pf
}

// lookup returns the fact set for path, or nil (never creating one, so
// concurrent-free read paths stay allocation-free).
func (s *FactStore) lookup(path string) *PackageFacts {
	return s.Pkgs[path]
}

// funcFactKey returns the package-local fact key of fn: "Name" for a
// package-level function, "Recv.Name" for a method (pointer receivers
// and value receivers share a key; a type cannot declare both).
func funcFactKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		if n, isNamed := t.(*types.Named); isNamed {
			return n.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

// factsForCall resolves the callee of call and returns its package fact
// set plus its package-local key, or ("", nil) when the callee is not a
// named function or has no facts recorded.
func factsForCall(pass *Pass, call *ast.CallExpr) (string, *PackageFacts) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil || pass.Facts == nil {
		return "", nil
	}
	pf := pass.Facts.lookup(fn.Pkg().Path())
	if pf == nil {
		return "", nil
	}
	return funcFactKey(fn), pf
}

// topoSort orders pkgs so every package follows all of its imports that
// are also in pkgs (Go's importer rejects cycles, so plain DFS is
// enough). Analyzers rely on this to see dependency facts before the
// dependent package runs.
func topoSort(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Pkg.Path()] = p
	}
	var (
		out     []*Package
		visited = make(map[string]bool, len(pkgs))
		visit   func(p *Package)
	)
	visit = func(p *Package) {
		if visited[p.Pkg.Path()] {
			return
		}
		visited[p.Pkg.Path()] = true
		for _, imp := range p.Pkg.Imports() {
			if dep, ok := byPath[imp.Path()]; ok {
				visit(dep)
			}
		}
		out = append(out, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}
