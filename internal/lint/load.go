package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// A Package is one type-checked target package ready for analysis.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// FactOnly marks a dependency loaded just so its fact summaries
	// (facts.go) reach the target packages; it contributes no
	// diagnostics of its own.
	FactOnly bool
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load lists the packages matching patterns (with their full dependency
// graph) via `go list -export -json -deps`, then parses and type-checks
// each matched package from source. Imports — standard library and
// intra-module alike — resolve through the compiler export data the
// -export flag materializes in the build cache, so loading needs no
// network and no dependency-order bookkeeping. Test files are excluded
// (GoFiles never contains them).
//
// Module-internal dependencies that match no pattern are loaded too,
// marked FactOnly: the fact-producing analyzers (facts.go) need their
// function summaries even when only a dependent package is being
// checked (`autoviewlint ./internal/serve` must still know which
// internal/nn helpers return arena-backed memory). Standard-library
// dependencies export no facts and stay export-data-only.
func Load(dir string, patterns ...string) ([]*Package, error) {
	targets, exports, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var pkgs []*Package
	for _, t := range targets {
		pkg, err := checkPackage(fset, imp, t.ImportPath, t.Dir, t.GoFiles)
		if err != nil {
			return nil, err
		}
		pkg.FactOnly = t.DepOnly
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// goList runs the listing half of Load: the non-standard-library
// packages to type-check from source, and every package's export data
// file by import path.
func goList(dir string, patterns []string) (targets []*listPkg, exports map[string]string, err error) {
	args := append([]string{"list", "-export", "-json", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	exports = make(map[string]string)
	dec := json.NewDecoder(&stdout)
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			return targets, exports, nil
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Error != nil {
			return nil, nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly || !p.Standard {
			targets = append(targets, &p)
		}
	}
}

// exportImporter resolves imports from compiler export data files.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// checkPackage parses files (absolute or relative to dir) and
// type-checks them as the package at importPath.
func checkPackage(fset *token.FileSet, imp types.Importer, importPath, dir string, files []string) (*Package, error) {
	var asts []*ast.File
	for _, name := range files {
		if !filepath.IsAbs(name) {
			name = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		asts = append(asts, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(importPath, fset, asts, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", importPath, err)
	}
	return &Package{Fset: fset, Files: asts, Pkg: pkg, Info: info}, nil
}
