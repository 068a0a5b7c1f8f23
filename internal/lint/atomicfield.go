package lint

import (
	"go/ast"
	"go/types"
)

// AtomicField bans the function-style sync/atomic API
// (atomic.AddInt64(&c.n, 1), atomic.LoadPointer, ...). A word driven
// through those functions is an ordinary field or variable that any
// other line may also touch plainly, and one plain read racing an atomic
// writer is undefined under the Go memory model — the bug the race
// detector only catches when the schedule cooperates. The typed atomics
// (atomic.Int64, atomic.Pointer[T], ...) make the mix unrepresentable,
// and the tree uses nothing else.
//
// Flagged:
//
//	atomic.AddUint64(&c.hits, 1)
//	total := atomic.LoadUint64(&c.hits)
//
// Conforming:
//
//	type counter struct{ hits atomic.Uint64 }
//	c.hits.Add(1)
//	total := c.hits.Load()
var AtomicField = &Analyzer{
	Name: "atomicfield",
	Doc:  "no function-style sync/atomic calls: declare the word as a typed atomic (atomic.Int64, atomic.Pointer[T])",
	Run:  runAtomicField,
}

func runAtomicField(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && isAtomicFnCall(pass.Info, call) {
				pass.Reportf(call.Pos(), "function-style atomic.%s leaves its operand open to plain access that races it; declare the word as a typed atomic (atomic.Int64, atomic.Pointer[T], ...) and call its method", calleeFunc(pass.Info, call).Name())
			}
			return true
		})
	}
	return nil
}

// isAtomicFnCall reports whether the call invokes a function-style
// sync/atomic operation (atomic.AddUint64, atomic.LoadPointer, ...).
// Methods on the typed atomics have a receiver and are excluded: they
// cannot mix with plain access in the first place.
func isAtomicFnCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}
