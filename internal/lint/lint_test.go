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
	"regexp"
	"strings"
	"testing"
)

// TestAnalyzers runs each analyzer over its golden fixture package in
// testdata/src/<name> and checks the diagnostics against the
// analysistest-style "// want" comments (backquoted regexes): every
// want must be matched by a diagnostic on its line, and every
// diagnostic must be covered by a want. Each fixture includes guard
// cases that must stay silent (sorted-keys idiom, `_ = err`, NaN
// self-test, ...).
func TestAnalyzers(t *testing.T) {
	for _, a := range Analyzers() {
		t.Run(a.Name, func(t *testing.T) { runFixture(t, a, a.Name) })
	}
}

func runFixture(t *testing.T, a *Analyzer, fixture string) {
	t.Helper()
	l := newFixtureLoader(t)
	// Fixtures type-check under their on-disk import path, which sits
	// inside internal/ — so scoped analyzers (errdiscard) apply.
	path := "autoview/internal/lint/testdata/src/" + fixture
	pkg := l.loadFixture(path)
	// Fixture dependencies (shim packages like nn or poolutil) ride
	// along fact-only, mirroring how Load feeds dependency summaries to
	// the analyzers; RunAnalyzers orders them itself.
	pkgs := []*Package{pkg}
	for p, dep := range l.loaded {
		if p != path {
			dep.FactOnly = true
			pkgs = append(pkgs, dep)
		}
	}
	diags, err := RunAnalyzers([]*Analyzer{a}, pkgs)
	if err != nil {
		t.Fatal(err)
	}

	wants := parseWants(t, l.fset, pkg.Files)
	got := make(map[allowKey][]Diagnostic)
	for _, d := range diags {
		k := allowKey{d.Pos.Filename, d.Pos.Line}
		got[k] = append(got[k], d)
	}
	for k, res := range wants {
		ds := got[k]
		if len(ds) != len(res) {
			t.Errorf("%s:%d: want %d diagnostics, got %d: %v", k.file, k.line, len(res), len(ds), ds)
			continue
		}
		for _, re := range res {
			matched := false
			for _, d := range ds {
				if re.MatchString(d.Message) {
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("%s:%d: no diagnostic matching %q in %v", k.file, k.line, re, ds)
			}
		}
	}
	for k, ds := range got {
		if _, ok := wants[k]; !ok {
			t.Errorf("%s:%d: unexpected diagnostic %q", k.file, k.line, ds[0].Message)
		}
	}
}

// parseWants extracts the backquoted "// want" regexes, keyed by line.
func parseWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[allowKey][]*regexp.Regexp {
	t.Helper()
	wants := make(map[allowKey][]*regexp.Regexp)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				k := allowKey{pos.Filename, pos.Line}
				for _, pat := range strings.Split(text, "`") {
					pat = strings.TrimSpace(pat)
					if pat == "" {
						continue
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}
	return wants
}

// fixtureLoader type-checks fixture packages GOPATH-style: an import
// path with a directory under testdata/src resolves to that fixture
// (e.g. the obs shim); anything else resolves to compiler export data
// fetched on demand with `go list -export`.
type fixtureLoader struct {
	t        *testing.T
	fset     *token.FileSet
	loaded   map[string]*Package
	exports  map[string]string
	stdlib   types.Importer
	testdata string
}

func newFixtureLoader(t *testing.T) *fixtureLoader {
	l := &fixtureLoader{
		t:        t,
		fset:     token.NewFileSet(),
		loaded:   make(map[string]*Package),
		exports:  make(map[string]string),
		testdata: filepath.Join("testdata", "src"),
	}
	l.stdlib = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		if _, ok := l.exports[path]; !ok {
			if err := l.fetchExports(path); err != nil {
				return nil, err
			}
		}
		return os.Open(l.exports[path])
	})
	return l
}

// fixtureDir maps an import path to its on-disk fixture directory, or
// "" when the path is not a fixture.
func (l *fixtureLoader) fixtureDir(path string) string {
	rel := strings.TrimPrefix(path, "autoview/internal/lint/testdata/src/")
	dir := filepath.Join(l.testdata, rel)
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		return dir
	}
	return ""
}

func (l *fixtureLoader) loadFixture(path string) *Package {
	l.t.Helper()
	if pkg, ok := l.loaded[path]; ok {
		return pkg
	}
	dir := l.fixtureDir(path)
	if dir == "" {
		l.t.Fatalf("no fixture directory for %q", path)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		l.t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".go") {
			files = append(files, e.Name())
		}
	}
	pkg, err := checkPackage(l.fset, l, path, dir, files)
	if err != nil {
		l.t.Fatalf("fixture %s: %v", path, err)
	}
	l.loaded[path] = pkg
	return pkg
}

// Import makes the loader the types.Importer its fixtures resolve
// through.
func (l *fixtureLoader) Import(path string) (*types.Package, error) {
	if l.fixtureDir(path) != "" {
		return l.loadFixture(path).Pkg, nil
	}
	return l.stdlib.Import(path)
}

// fetchExports populates the export-data map for path and its deps.
func (l *fixtureLoader) fetchExports(path string) error {
	cmd := exec.Command("go", "list", "-export", "-json=ImportPath,Export", "-deps", path)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go list %s: %v\n%s", path, err, stderr.String())
	}
	dec := json.NewDecoder(&stdout)
	for {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return err
		}
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
	}
	return nil
}

// TestLoadRepo smoke-tests the go list loader on a real package.
func TestLoadRepo(t *testing.T) {
	pkgs, err := Load("..", "autoview/internal/obs")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Pkg.Path() != "autoview/internal/obs" {
		t.Fatalf("unexpected packages: %+v", pkgs)
	}
	if len(pkgs[0].Files) == 0 {
		t.Fatal("no files loaded")
	}
	for _, f := range pkgs[0].Files {
		name := pkgs[0].Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			t.Errorf("test file %s should not be loaded", name)
		}
	}
}

// TestSuppression checks the //lint:allow comment contract directly:
// same-line and line-above comments waive the named analyzer only.
func TestSuppression(t *testing.T) {
	src := `package p

func cmp(a, b float64) bool {
	if a == b { //lint:allow floateq same-line waiver
		return true
	}
	//lint:allow floateq line-above waiver
	if a != b {
		return false
	}
	//lint:allow randsource wrong analyzer does not waive
	return a == b
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Types: make(map[ast.Expr]types.TypeAndValue), Defs: make(map[*ast.Ident]types.Object), Uses: make(map[*ast.Ident]types.Object)}
	pkg, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers([]*Analyzer{FloatEq}, []*Package{{Fset: fset, Files: []*ast.File{f}, Pkg: pkg, Info: info}})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].Pos.Line != 12 {
		t.Fatalf("want exactly the unwaived line-12 diagnostic, got %v", diags)
	}
}

// TestAuditTagSuppression checks the audit-tag arm of the //lint:allow
// grammar: `floateq(audit)` waives exactly like the bare name (it marks
// a vetted comparison helper; see LINTING.md "Audit notes"), while an
// unknown or malformed tag waives nothing — a typo must fail loud by
// letting the diagnostic through.
func TestAuditTagSuppression(t *testing.T) {
	src := `package p

func cmp(a, b float64) bool {
	if a == b { //lint:allow floateq(audit) vetted comparison entry point
		return true
	}
	//lint:allow floateq(audit) line-above audit waiver
	if a != b {
		return false
	}
	if a == b { //lint:allow floateq(vetted) unknown tag must not waive
		return true
	}
	//lint:allow floateq(audit unclosed tag must not waive
	return a == b
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Types: make(map[ast.Expr]types.TypeAndValue), Defs: make(map[*ast.Ident]types.Object), Uses: make(map[*ast.Ident]types.Object)}
	pkg, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers([]*Analyzer{FloatEq}, []*Package{{Fset: fset, Files: []*ast.File{f}, Pkg: pkg, Info: info}})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("want the two unwaived diagnostics (bad tags), got %v", diags)
	}
	if diags[0].Pos.Line != 11 || diags[1].Pos.Line != 15 {
		t.Fatalf("want diagnostics on lines 11 and 15, got %v", diags)
	}
}

// TestLintSelfClean runs the full eight-analyzer suite over the
// repository itself, in-process: the tree must stay free of
// unsuppressed findings (every intentional violation carries a
// //lint:allow reason, vetted sites the (audit) tag; LINTING.md).
// These are the two calls `make lint` makes through cmd/autoviewlint,
// kept as a test so a new analyzer (or a regression in an old one)
// cannot land findings silently.
func TestLintSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module; skipped in -short")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	store := NewFactStore()
	diags, err := runAnalyzers(Analyzers(), pkgs, store)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unsuppressed finding: %s", d)
	}

	// The clean result is only meaningful if the run extracted the
	// cross-package contracts the resource-discipline analyzers rest
	// on; assert the load-bearing facts are present.
	checks := []struct{ pkg, kind, key string }{
		{"autoview/internal/serve", "getter", "getEstScratch"},
		{"autoview/internal/serve", "putter", "putEstScratch"},
		{"autoview/internal/sqlparse", "putter", "putFPScratch"},
		// widedeep's and rl's inference arenas: their call sites pair
		// through these two.
		{"autoview/internal/nn", "getter", "ArenaPool.Get"},
		{"autoview/internal/nn", "putter", "ArenaPool.Put"},
		{"autoview/internal/featenc", "arena", "Encoder32.InferPlan"},
	}
	for _, c := range checks {
		pf := store.lookup(c.pkg)
		if pf == nil {
			t.Errorf("no facts recorded for %s", c.pkg)
			continue
		}
		var ok bool
		switch c.kind {
		case "getter":
			_, ok = pf.PoolGetters[c.key]
		case "putter":
			_, ok = pf.PoolPutters[c.key]
		case "arena":
			ok = len(pf.ArenaReturns[c.key]) > 0
		}
		if !ok {
			t.Errorf("%s: missing %s fact %q\n  getters=%v\n  putters=%v\n  arena=%v",
				c.pkg, c.kind, c.key, pf.PoolGetters, pf.PoolPutters, pf.ArenaReturns)
		}
	}
}

// TestLoadCrossPackageFacts drives Load + RunAnalyzers over
// testdata/vetmod, a self-contained module whose app package violates
// contracts its dependencies export as facts. Both expected findings
// are invisible to intra-package analysis, so this test fails if the
// dependency-ordered fact phase stops reaching the dependent package.
func TestLoadCrossPackageFacts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list -export over the fixture module; skipped in -short")
	}
	pkgs, err := Load(filepath.Join("testdata", "vetmod"), "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers(Analyzers(), pkgs)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, d := range diags {
		lines = append(lines, d.String())
	}
	text := strings.Join(lines, "\n")
	if len(diags) != 2 {
		t.Errorf("want exactly the two cross-package findings, got %d:\n%s", len(diags), text)
	}
	for _, want := range []string{
		// arenaescape: enc.Embed's "returns arena-backed memory" fact
		// reached the app package.
		"arena-backed slice stored in package variable global",
		// poolpair: bufpool's getter/putter facts reached the app package.
		"is not returned to the pool on this path",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("diagnostics missing %q:\n%s", want, text)
		}
	}
	// The conforming sites (PutBuf on the happy path, the enc helper
	// itself) must stay quiet.
	for _, file := range []string{"enc.go", "bufpool.go", "nn.go"} {
		if strings.Contains(text, file) {
			t.Errorf("unexpected finding in dependency %s:\n%s", file, text)
		}
	}
}
