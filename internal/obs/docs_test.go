package obs

import (
	"encoding/json"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// pinnedDocs are the documents whose backticked names must exist in the
// tree; the root-relative paths are read from the repository root.
var pinnedDocs = []string{"SERVING.md", "OBSERVABILITY.md", "PERFORMANCE.md", "DESIGN.md",
	"README.md", "EXPERIMENTS.md", "LINTING.md"}

// unpinnedDocs are the root documents that are history, plans or inputs:
// they name deleted or future code by design.
var unpinnedDocs = []string{"CHANGES.md", "ROADMAP.md", "PAPER.md", "PAPERS.md", "SNIPPETS.md"}

// rootDocRef is a root document named in a doc's text or links; a name
// behind a directory (bench/README.md) is not a root document.
var rootDocRef = regexp.MustCompile(`(?:^|[^/\w])([A-Z][A-Z_]*\.md)\b`)

const repoRoot = "../.."

// tree is what the non-test Go sources under internal/ and cmd/ (and
// BENCHMARK.json) declare: packages with their top-level names, types,
// every field and method name per package, the flags registered, and
// the metric, span and event names. flags also holds the go command's
// build and test flags and those the benchmark harness under bench/
// registers. std holds the same declarations for the standard-library
// packages the tree imports, keyed by import name, loaded from
// $GOROOT/src by loadStd as the docs name them.
type tree struct {
	top      map[string]map[string]bool // package → top-level names
	members  map[string]map[string]bool // package → field and method names
	types    map[string][]string        // type name → packages declaring it
	flags    map[string]bool
	names    map[string]bool     // metrics, spans (+ ".seconds"), events, BENCHMARK.json metrics
	stdPaths map[string][]string // import name → standard-library import paths
	std      *tree
}

func newTree() *tree {
	return &tree{top: map[string]map[string]bool{}, members: map[string]map[string]bool{},
		types: map[string][]string{}, flags: map[string]bool{}, names: map[string]bool{},
		stdPaths: map[string][]string{}}
}

func add(m map[string]map[string]bool, pkg, name string) {
	if m[pkg] == nil {
		m[pkg] = map[string]bool{}
	}
	m[pkg][name] = true
}

// declare records f's top-level names and types under pkg, and every
// field and method name it declares as pkg's members.
func (tr *tree) declare(pkg string, f *ast.File) {
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				add(tr.top, pkg, decl.Name.Name)
			} else {
				add(tr.members, pkg, decl.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add(tr.top, pkg, spec.Name.Name)
					tr.types[spec.Name.Name] = append(tr.types[spec.Name.Name], pkg)
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						add(tr.top, pkg, n.Name)
					}
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if n, ok := n.(*ast.Field); ok {
			for _, name := range n.Names {
				add(tr.members, pkg, name.Name)
			}
			if id, ok := n.Type.(*ast.Ident); ok && len(n.Names) == 0 {
				add(tr.members, pkg, id.Name) // embedded
			}
		}
		return true
	})
}

// parseDir parses the non-test Go files under dir (its subdirectories
// too when recursive, never testdata).
func parseDir(t *testing.T, fset *token.FileSet, dir string, recursive bool) []*ast.File {
	t.Helper()
	var files []*ast.File
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != dir && (!recursive || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		files = append(files, f)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// goOutput runs the go command (test binaries find it on PATH) and
// returns its standard output.
func goOutput(t *testing.T, args ...string) string {
	t.Helper()
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		t.Fatalf("go %s: %v", strings.Join(args, " "), err)
	}
	return string(out)
}

// Call selectors whose first string argument names a metric or an event,
// and those whose argument at the given index names a flag.
var (
	nameCalls = map[string]bool{"Counter": true, "Gauge": true, "Histogram": true,
		"Debug": true, "Info": true, "Warn": true, "Error": true}
	flagCalls = map[string]int{
		"Bool": 0, "Int": 0, "Int64": 0, "Uint": 0, "Uint64": 0, "String": 0, "Float64": 0, "Duration": 0, "Func": 0,
		"BoolVar": 1, "IntVar": 1, "Int64Var": 1, "UintVar": 1, "Uint64Var": 1, "StringVar": 1, "Float64Var": 1,
		"DurationVar": 1, "Var": 1, "TextVar": 1,
	}
)

func loadTree(t *testing.T) *tree {
	t.Helper()
	tr := newTree()
	fset := token.NewFileSet()
	var files []*ast.File
	for _, dir := range []string{"internal", "cmd"} {
		files = append(files, parseDir(t, fset, filepath.Join(repoRoot, dir), true)...)
	}
	for _, f := range files {
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if first, _, _ := strings.Cut(path, "/"); strings.Contains(first, ".") || first == "autoview" {
				continue
			}
			name := path[strings.LastIndexByte(path, '/')+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			if !slices.Contains(tr.stdPaths[name], path) {
				tr.stdPaths[name] = append(tr.stdPaths[name], path)
			}
		}
	}

	// spanArg maps each span call, and each function that passes one of
	// its parameters on as a span name (serve's endpoint wrapper), to the
	// argument that names the span.
	spanArg := map[string]int{"StartSpan": 0, "Time": 0, "ObserveSpan": 0}
	for _, f := range files {
		tr.declare(f.Name.Name, f)
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				if i := spanParam(fn); i >= 0 {
					spanArg[fn.Name.Name] = i
				}
			}
		}
	}
	harness := parseDir(t, fset, filepath.Join(repoRoot, "bench"), false)
	for i, f := range append(files, harness...) {
		isHarness := i >= len(files)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			if i, isFlag := flagCalls[name]; isFlag {
				if s, ok := stringArg(call, i); ok {
					tr.flags[s] = true
				}
			}
			if isHarness {
				return true // the harness contributes its flags only
			}
			if s, ok := stringArg(call, 0); ok && nameCalls[name] {
				tr.names[s] = true
			}
			if i, isSpan := spanArg[name]; isSpan {
				if s, ok := stringArg(call, i); ok {
					tr.names[s], tr.names[s+".seconds"] = true, true
				}
			}
			return true
		})
	}
	for _, help := range []string{"testflag", "build"} {
		for _, m := range helpFlag.FindAllStringSubmatch(goOutput(t, "help", help), -1) {
			tr.flags[m[1]] = true
		}
	}
	tr.std = newTree()

	raw, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		tr.names[m.Name] = true
	}
	return tr
}

// loadStd declares, in tr.std, the standard-library packages the tree
// imports under each of the given import names, from this platform's
// files under $GOROOT/src.
func (tr *tree) loadStd(t *testing.T, names map[string]bool) {
	t.Helper()
	fset := token.NewFileSet()
	for name := range names {
		for _, path := range tr.stdPaths[name] {
			pkg, err := build.Import(path, "", 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, file := range pkg.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(pkg.Dir, file), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				tr.std.declare(name, f)
			}
		}
	}
}

// stringArg returns call's i-th argument when it is a string literal.
func stringArg(call *ast.CallExpr, i int) (string, bool) {
	if i >= len(call.Args) {
		return "", false
	}
	b, ok := call.Args[i].(*ast.BasicLit)
	if !ok || b.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(b.Value)
	return s, err == nil
}

// spanParam returns the index of fn's parameter that fn passes to a
// StartSpan call, or -1.
func spanParam(fn *ast.FuncDecl) int {
	var params []string
	for _, field := range fn.Type.Params.List {
		for _, n := range field.Names {
			params = append(params, n.Name)
		}
	}
	found := -1
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return found < 0
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		arg, isIdent := call.Args[0].(*ast.Ident)
		if ok && isIdent && sel.Sel.Name == "StartSpan" {
			for i, p := range params {
				if p == arg.Name {
					found = i
				}
			}
		}
		return found < 0
	})
	return found
}

var (
	fenced   = regexp.MustCompile("(?s)```.*?```")
	inline   = regexp.MustCompile("`([^`\n]+)`")
	flagWord = regexp.MustCompile(`^-[a-z][a-z0-9-]*$`)
	// helpFlag is a flag at the start of a line of go help output.
	helpFlag = regexp.MustCompile(`(?m)^\s+-([a-z][a-z0-9-]*)`)
	// dotted is pkg.Ident[.Member…] or Type.Member…, optionally behind an
	// import path; a trailing ".*" names a metric family.
	dotted   = regexp.MustCompile(`^(?:[a-z0-9_]+/)*([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(\.\*)?$`)
	fileName = regexp.MustCompile(`\.(go|md|json|sh|txt|log|ckpt|mod|sql)$`)
)

// resolves reports whether a dotted name is a metric, span, event or
// BENCHMARK.json metric, or resolves as pkg.Ident[.Member…] or
// Type.Member… in the Go tree or, behind its import name, in a
// standard-library package the tree imports.
func (tr *tree) resolves(name string, family bool) bool {
	if family {
		for n := range tr.names {
			if strings.HasPrefix(n, name+".") {
				return true
			}
		}
		return false
	}
	if tr.names[name] {
		return true
	}
	segs := strings.Split(name, ".")
	return tr.resolvesGo(segs) || (tr.std.top[segs[0]] != nil && tr.std.resolvesGo(segs))
}

func (tr *tree) resolvesGo(segs []string) bool {
	var pkgs []string
	rest := segs[1:]
	if top, ok := tr.top[segs[0]]; ok && top[segs[1]] {
		pkgs, rest = []string{segs[0]}, segs[2:]
	} else {
		pkgs = tr.types[segs[0]]
	}
	if len(pkgs) == 0 {
		return false
	}
	for _, m := range rest {
		found := false
		for _, p := range pkgs {
			found = found || tr.members[p][m]
		}
		if !found {
			return false
		}
	}
	return true
}

// TestDocsNameLiveThings pins the root docs to the tree: a backticked
// name is live. Every backticked -flag must be registered by a command
// (directly or through the shared flag helpers) or the benchmark
// harness, or be a go build or test flag, and every backticked dotted
// name must be a metric, span or event the code names, a BENCHMARK.json
// metric, or a Go identifier that resolves as pkg.Ident[.Member] or
// Type.Member, in the tree or in a standard-library package it imports.
// Fenced blocks are not scanned: profile excerpts and sessions go there,
// and names of deleted code are written without backticks. A rename
// that forgets a doc fails here.
func TestDocsNameLiveThings(t *testing.T) {
	tr := loadTree(t)
	type use struct {
		doc, tok, name string
		family         bool
	}
	var uses []use
	std := map[string]bool{} // import names the dotted uses may need
	checked := 0
	for _, doc := range pinnedDocs {
		raw, err := os.ReadFile(filepath.Join(repoRoot, doc))
		if err != nil {
			t.Fatal(err)
		}
		text := fenced.ReplaceAllString(string(raw), "")
		for _, m := range inline.FindAllStringSubmatch(text, -1) {
			tok := m[1]
			if w := strings.Fields(tok)[0]; flagWord.MatchString(w) {
				checked++
				if !tr.flags[w[1:]] {
					t.Errorf("%s: `%s`: neither a command, the benchmark harness nor the go command registers the flag %s", doc, tok, w)
				}
				continue
			}
			name := strings.TrimSuffix(tok, "()")
			if i := strings.IndexByte(name, '['); i > 0 && strings.HasSuffix(name, "]") {
				name = name[:i] // a generic instantiation: serve.cache[float64]
			}
			d := dotted.FindStringSubmatch(name)
			if d == nil || fileName.MatchString(name) || (!strings.Contains(d[1], ".") && d[2] == "") {
				continue
			}
			uses = append(uses, use{doc, tok, d[1], d[2] != ""})
			if first, _, _ := strings.Cut(d[1], "."); tr.stdPaths[first] != nil {
				std[first] = true
			}
		}
	}
	tr.loadStd(t, std)
	for _, u := range uses {
		checked++
		if !tr.resolves(u.name, u.family) {
			t.Errorf("%s: `%s` names nothing in the tree", u.doc, u.tok)
		}
	}
	if checked == 0 {
		t.Fatal("no backticked flag or dotted name found: the doc scan is broken")
	}
}

// TestEveryRootDocIsPinned keeps a new reference document from escaping
// the pin: each root document a pinned doc names, which is how a reader
// finds it, is either pinned or one of the unpinned history, plan and
// input files.
func TestEveryRootDocIsPinned(t *testing.T) {
	docs, err := filepath.Glob(filepath.Join(repoRoot, "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	known, named := map[string]bool{}, map[string]bool{}
	for _, d := range append(pinnedDocs, unpinnedDocs...) {
		known[d] = true
	}
	for _, doc := range pinnedDocs {
		raw, err := os.ReadFile(filepath.Join(repoRoot, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range rootDocRef.FindAllStringSubmatch(string(raw), -1) {
			named[m[1]] = true
		}
	}
	for _, d := range docs {
		if d := filepath.Base(d); named[d] && !known[d] {
			t.Errorf("%s is named by a pinned doc but is neither in pinnedDocs nor in unpinnedDocs", d)
		}
	}
}
