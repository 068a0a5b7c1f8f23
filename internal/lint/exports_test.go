package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// keptWithoutCaller lists the exported functions and methods under
// internal/ that no non-test file calls but that stay, each with its
// reason. Keys are "<import path>.<Func>" or "<import path>.<Type>.<Method>".
var keptWithoutCaller = map[string]string{
	"autoview/internal/rewrite.Manager.Drop":            "the advisor will drop candidates no active view set uses (ROADMAP item 9(3))",
	"autoview/internal/rewrite.Manager.View":            "tests read what Drop does through it",
	"autoview/internal/rewrite.Manager.Views":           "the site TestReintroducedBugs proves maporder against",
	"autoview/internal/nn.AlmostEqual":                  "tolerance helper shared by several packages' tests",
	"autoview/internal/nn.ULPDiff32":                    "ULP-distance helper shared by several packages' tests",
	"autoview/internal/testutil.Mallocs":                "allocation counter shared by several packages' zero-allocation gates",
	"autoview/internal/widedeep.Model.PredictReference": "the f64 oracle the served f32 forward is checked against",
	"autoview/internal/storage.Table.Append":            "the arity-checked way tests build fixture tables",
	"autoview/internal/obs.Counter.Name":                "tests read metrics through it",
	"autoview/internal/obs.Gauge.Name":                  "tests read metrics through it",
	"autoview/internal/obs.Histogram.Name":              "tests read metrics through it",
	"autoview/internal/obs.Histogram.Count":             "tests read metrics through it",
	"autoview/internal/obs.Histogram.Sum":               "tests read metrics through it",
	"autoview/internal/obs.Registry.Reset":              "tests start from a clean registry",
	"autoview/internal/obs.Handle.Shutdown":             "tests stop the metrics endpoint they start",
}

// TestEveryExportHasACaller fails naming every exported function, and
// every exported method of an exported type, declared in a non-test
// file under internal/ that no non-test file of the module (cmd/,
// examples/, internal/) or of the bench module references. Code only
// tests call is code the program does not need: delete it, or move it
// into the test that uses it. A method some interface of the loaded
// packages (or error, or fmt.Stringer) requires is called through that
// interface and counts as used; keptWithoutCaller names the rest that
// stay, with why.
func TestEveryExportHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module and bench/; skipped in -short")
	}
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	benchPkgs, err := Load(filepath.Join("..", "..", "bench"), "./...")
	if err != nil {
		t.Fatal(err)
	}
	unused := exportsWithoutCaller(slices.Concat(m.pkgs, benchPkgs))
	for key := range keptWithoutCaller {
		if _, ok := unused[key]; !ok {
			t.Errorf("%s is allowlisted but has a caller now, or is gone: drop its entry", key)
		}
		delete(unused, key)
	}
	keys := make([]string, 0, len(unused))
	for key := range unused {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		t.Errorf("%s: %s has no caller outside tests", unused[key], key)
	}
}

// exportsWithoutCaller returns, by key, the position of each exported
// function or method under internal/ in pkgs that no file in pkgs
// references other than from its own body. FactOnly packages are
// copies of ones loaded as targets elsewhere and are skipped.
func exportsWithoutCaller(pkgs []*Package) map[string]string {
	type decl struct {
		fn   *types.Func
		node *ast.FuncDecl
		pos  string
	}
	decls := make(map[string]decl)
	ifaces := []map[string]string{{"Error": "()(string,)"}, {"String": "()(string,)"}}
	for _, pkg := range pkgs {
		if pkg.FactOnly {
			continue
		}
		for _, obj := range pkg.Info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ms := make(map[string]string)
					for i := 0; i < it.NumMethods(); i++ {
						ms[it.Method(i).Name()] = signatureKey(it.Method(i))
					}
					ifaces = append(ifaces, ms)
				}
			}
		}
		if !strings.HasPrefix(pkg.Pkg.Path(), "autoview/internal/") {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := pkg.Info.Defs[fd.Name].(*types.Func)
				if recv := receiverNamed(fn); recv != nil && !recv.Obj().Exported() {
					continue
				}
				decls[exportKey(fn)] = decl{fn, fd, pkg.Fset.Position(fd.Pos()).String()}
			}
		}
	}
	for _, pkg := range pkgs {
		if pkg.FactOnly {
			continue
		}
		for id, obj := range pkg.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil {
				continue
			}
			key := exportKey(fn.Origin())
			d, ok := decls[key]
			if !ok || (d.fn == fn.Origin() && d.node.Pos() <= id.Pos() && id.Pos() < d.node.End()) {
				continue // not tracked, or the function naming itself
			}
			delete(decls, key)
		}
	}
	out := make(map[string]string)
	for key, d := range decls {
		if !satisfiesInterface(d.fn, ifaces) {
			out[key] = d.pos
		}
	}
	return out
}

// exportKey is "<import path>.<Func>" or "<import path>.<Type>.<Method>".
func exportKey(fn *types.Func) string {
	return fn.Pkg().Path() + "." + funcFactKey(fn)
}

// receiverNamed returns the named receiver type of a method, or nil.
func receiverNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// satisfiesInterface reports whether fn is a method one of ifaces (each
// a method set, name → signatureKey) requires of its receiver type, so
// calls reach it through the interface rather than by name. Each
// package is type-checked against its imports' export data, so one type
// can appear as several objects: method sets are compared as strings.
func satisfiesInterface(fn *types.Func, ifaces []map[string]string) bool {
	recv := receiverNamed(fn)
	if recv == nil {
		return false
	}
	methods := make(map[string]string)
	ms := types.NewMethodSet(types.NewPointer(recv))
	for i := 0; i < ms.Len(); i++ {
		m := ms.At(i).Obj().(*types.Func)
		methods[m.Name()] = signatureKey(m)
	}
	for _, it := range ifaces {
		complete := true
		for name, sig := range it {
			complete = complete && methods[name] == sig
		}
		if _, required := it[fn.Name()]; required && complete {
			return true
		}
	}
	return false
}

// signatureKey prints fn's parameter and result types without their
// names, which an interface and its implementations need not share.
func signatureKey(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteString("(")
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), nil) + ",")
		}
		b.WriteString(")")
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}
