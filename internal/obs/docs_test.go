package obs

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// pinnedDocs are the documents whose backticked names must exist in the
// tree; the root-relative paths are read from the repository root.
var pinnedDocs = []string{"SERVING.md", "OBSERVABILITY.md"}

const repoRoot = "../.."

// tree is what the non-test Go sources under internal/ and cmd/ (and
// BENCHMARK.json) declare: packages with their top-level names, types,
// every field and method name per package, the flags registered, and
// the metric, span and event names.
type tree struct {
	top     map[string]map[string]bool // package → top-level names
	members map[string]map[string]bool // package → field and method names
	types   map[string][]string        // type name → packages declaring it
	flags   map[string]bool
	names   map[string]bool // metrics, spans (+ ".seconds"), events, BENCHMARK.json metrics
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
	tr := &tree{top: map[string]map[string]bool{}, members: map[string]map[string]bool{},
		types: map[string][]string{}, flags: map[string]bool{}, names: map[string]bool{}}
	add := func(m map[string]map[string]bool, pkg, name string) {
		if m[pkg] == nil {
			m[pkg] = map[string]bool{}
		}
		m[pkg][name] = true
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, dir := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(repoRoot, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
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
	}

	// spanArg maps each span call, and each function that passes one of
	// its parameters on as a span name (serve's endpoint wrapper), to the
	// argument that names the span.
	spanArg := map[string]int{"StartSpan": 0, "Time": 0, "ObserveSpan": 0}
	for _, f := range files {
		pkg := f.Name.Name
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					add(tr.top, pkg, decl.Name.Name)
				} else {
					add(tr.members, pkg, decl.Name.Name)
				}
				if i := spanParam(decl); i >= 0 {
					spanArg[decl.Name.Name] = i
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
	}
	for _, f := range files {
		pkg := f.Name.Name
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				for _, name := range n.Names {
					add(tr.members, pkg, name.Name)
				}
				if id, ok := n.Type.(*ast.Ident); ok && len(n.Names) == 0 {
					add(tr.members, pkg, id.Name) // embedded
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				name := sel.Sel.Name
				if s, ok := stringArg(n, 0); ok && nameCalls[name] {
					tr.names[s] = true
				}
				if i, isSpan := spanArg[name]; isSpan {
					if s, ok := stringArg(n, i); ok {
						tr.names[s], tr.names[s+".seconds"] = true, true
					}
				}
				if i, isFlag := flagCalls[name]; isFlag {
					if s, ok := stringArg(n, i); ok {
						tr.flags[s] = true
					}
				}
			}
			return true
		})
	}

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
	// dotted is pkg.Ident[.Member…] or Type.Member…, optionally behind an
	// import path; a trailing ".*" names a metric family.
	dotted   = regexp.MustCompile(`^(?:[a-z0-9_]+/)*([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(\.\*)?$`)
	fileName = regexp.MustCompile(`\.(go|md|json|sh|txt|log|ckpt|mod|sql)$`)
)

// resolves reports whether a dotted name is a metric, span, event or
// BENCHMARK.json metric, or resolves in the Go tree as pkg.Ident[.Member…]
// or Type.Member….
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

// TestDocsNameLiveThings pins the serving and observability docs to the
// tree: every backticked -flag must be registered by a command (directly
// or through the shared flag helpers), and every backticked dotted name
// must be a metric, span or event the code names, a BENCHMARK.json
// metric, or a Go identifier that resolves as pkg.Ident[.Member] or
// Type.Member. A rename that forgets a doc fails here.
func TestDocsNameLiveThings(t *testing.T) {
	tr := loadTree(t)
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
					t.Errorf("%s: `%s`: no command registers the flag %s", doc, tok, w)
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
			checked++
			if !tr.resolves(d[1], d[2] != "") {
				t.Errorf("%s: `%s` names nothing in the tree", doc, tok)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no backticked flag or dotted name found: the doc scan is broken")
	}
}
