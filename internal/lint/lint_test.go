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
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
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
	got := make(map[lineKey][]Diagnostic)
	for _, d := range diags {
		k := lineKey{d.Pos.Filename, d.Pos.Line}
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

// lineKey is one source line, for matching diagnostics to expectations.
type lineKey struct {
	file string
	line int
}

// parseWants extracts the backquoted "// want" regexes, keyed by line.
func parseWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[lineKey][]*regexp.Regexp {
	t.Helper()
	wants := make(map[lineKey][]*regexp.Regexp)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				k := lineKey{pos.Filename, pos.Line}
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

// loadModule loads the whole module once for the tests that read it and
// runs the full suite over it: the packages, the diagnostics before
// suppression, and the facts extracted on the way. These are the two
// calls `make lint` makes through cmd/autoviewlint, split at
// suppression so the waivers themselves can be checked.
var loadModule = sync.OnceValues(func() (m struct {
	pkgs  []*Package
	raw   []Diagnostic
	store *FactStore
}, err error) {
	if m.pkgs, err = Load("../..", "./..."); err != nil {
		return m, err
	}
	m.store = NewFactStore()
	m.raw, err = runAnalyzers(Analyzers(), m.pkgs, m.store)
	return m, err
})

// TestLintSelfClean runs the full eight-analyzer suite over the
// repository itself, in-process: the tree must stay free of
// unsuppressed findings (every intentional violation carries a
// //lint:allow reason, vetted sites the (audit) tag; LINTING.md), kept
// as a test so a new analyzer (or a regression in an old one) cannot
// land findings silently.
func TestLintSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module; skipped in -short")
	}
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range filterSuppressed(slices.Clone(m.raw), m.pkgs) {
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
		pf := m.store.lookup(c.pkg)
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

	// Test files are not analyzed (Load reads GoFiles), so a waiver in
	// one waives nothing and teaches the wrong habit. internal/lint's
	// own tests quote the syntax; bench/ is a separate, frozen module.
	err = filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if rel, _ := filepath.Rel("../..", path); d.IsDir() && (rel == "bench" || rel == filepath.Join("internal", "lint")) {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			if strings.Contains(line, "//lint:allow ") {
				t.Errorf("%s:%d: //lint:allow in a test file waives nothing (test files are not analyzed); delete it", path, i+1)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWaiversLoadBearing fails naming any //lint:allow in the module
// that suppresses nothing: every analyzer a waiver names must report on
// the line it covers, so a waiver cannot outlive the code it excused
// (and one whose names were all mistyped — it waives nothing — fails
// here too).
func TestWaiversLoadBearing(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module; skipped in -short")
	}
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, pkg := range m.pkgs {
		for _, w := range waivers(pkg.Fset, pkg.Files) {
			n++
			if len(w.names) == 0 {
				t.Errorf("%s:%d: //lint:allow names no analyzer", w.file, w.line)
			}
			for _, name := range w.names {
				one := waiver{file: w.file, line: w.line, names: []string{name}}
				if !slices.ContainsFunc(m.raw, one.covers) {
					t.Errorf("%s:%d: stale waiver: %s reports nothing on this line or the next; delete the //lint:allow", w.file, w.line, name)
				}
			}
		}
	}
	// The count is the "waivers" column of PERFORMANCE.md's audit rows
	// (o)–(y); a change here is a change there.
	if n != 14 {
		t.Errorf("module carries %d waivers, PERFORMANCE.md's audit table says 14", n)
	}
}

// TestReintroducedBugs puts one historical (or one-edit-away) bug back
// into the real file each analyzer protects and requires exactly that
// analyzer to fire on the mutated line — the fixtures prove the rules,
// this proves the rules still meet the code. Each case type-checks the
// real package with one file swapped for a mutated copy; the text to
// mutate is matched, not positioned, so a case whose site was rewritten
// fails instead of rotting.
func TestReintroducedBugs(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module; skipped in -short")
	}
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	targets, exports, err := goList("../..", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, analyzer string
		pkg, file      string
		old, new       string // old occurs exactly once in file
		at             string // text on the line the diagnostic must land on
	}{{
		name: "PR 3: Manager.Views returned map order", analyzer: "maporder",
		pkg: "autoview/internal/rewrite", file: "rewrite.go",
		old: "\tsort.Slice(out, func(i, j int) bool { return out[i].Fingerprint < out[j].Fingerprint })\n",
		at:  "out = append(out, v)",
	}, {
		name: "PR 3: obs swallowed srv.Serve's error", analyzer: "errdiscard",
		pkg: "autoview/internal/obs", file: "http.go",
		old: "\t\tdefer close(h.done)\n",
		new: "\t\tdefer close(h.done)\n\t\th.srv.Serve(ln)\n",
		at:  "h.srv.Serve(ln)",
	}, {
		name: "the estimate handler drops its scratch", analyzer: "poolpair",
		pkg: "autoview/internal/serve", file: "handlers.go",
		old: "\tdefer putEstScratch(sc)\n",
		at:  "sc := getEstScratch()",
	}, {
		name: "early return between arenas.Get and Put in Predict", analyzer: "poolpair",
		pkg: "autoview/internal/widedeep", file: "model.go",
		old: "\ty := m.kernels().inferForward(f, a)\n",
		new: "\ty := m.kernels().inferForward(f, a)\n\tif y < 0 {\n\t\treturn 0\n\t}\n",
		at:  "return 0",
	}, {
		name: "batch slab carved from a pooled arena", analyzer: "arenaescape",
		pkg: "autoview/internal/widedeep", file: "batch.go",
		old: "sc.slab = make(nn.Vec32, len(distinct)*dim)",
		new: "sc.slab = m.arenas.Get().Vec32(len(distinct) * dim)",
		at:  "sc.slab = m.arenas.Get()",
	}, {
		name: "plan-code memo stores the arena vector, not a copy", analyzer: "arenaescape",
		pkg: "autoview/internal/featenc", file: "infer32.go",
		old: "\t\tmemo.vec = make(nn.Vec32, len(code))\n\t\tcopy(memo.vec, code)\n",
		new: "\t\tmemo.vec = code\n",
		at:  "memo.vec = code",
	}, {
		name: "defer StartSpan without the trailing ()", analyzer: "spanend",
		pkg: "autoview/internal/widedeep", file: "model.go",
		old: "\tdefer obs.StartSpan(\"wd.infer\")()\n",
		new: "\tdefer obs.StartSpan(\"wd.infer\")\n",
		at:  "defer obs.StartSpan",
	}, {
		name: "ambient rand in the workload generator", analyzer: "randsource",
		pkg: "autoview/internal/workload", file: "wk.go",
		old: "Rows: 200 + rng.Intn(200)",
		new: "Rows: 200 + rand.Intn(200)",
		at:  "rand.Intn(200)",
	}, {
		name: "a counter driven by function-style atomics", analyzer: "atomicfield",
		pkg: "autoview/internal/obs", file: "metric.go",
		old: "\tname, help string\n}\n\n// Inc adds one.\nfunc (c *Counter) Inc() { c.v.Add(1) }\n",
		new: "\tname, help string\n\tn          int64\n}\n\n// Inc adds one.\nfunc (c *Counter) Inc() { atomic.AddInt64(&c.n, 1) }\n",
		at:  "atomic.AddInt64(&c.n, 1)",
	}, {
		name: "AlmostEqual's exact short-circuit, unwaived", analyzer: "floateq",
		pkg: "autoview/internal/nn", file: "almost.go",
		old: "if a == b { //lint:allow floateq(audit) exact-equality short-circuit of the vetted tolerance helper (handles equal infinities)\n",
		new: "if a == b {\n",
		at:  "if a == b {",
	}}
	covered := make(map[string]bool)
	for _, c := range cases {
		covered[c.analyzer] = true
		t.Run(c.analyzer+"/"+c.file, func(t *testing.T) {
			var target *listPkg
			for _, lp := range targets {
				if lp.ImportPath == c.pkg {
					target = lp
				}
			}
			if target == nil {
				t.Fatalf("package %s is gone; move the case to where %q lives now", c.pkg, c.name)
			}
			src, err := os.ReadFile(filepath.Join(target.Dir, c.file))
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(src), c.old); n != 1 {
				t.Fatalf("%s/%s: the text to mutate occurs %d times, want 1 — the site changed; rewrite the case against what protects it now:\n%s", c.pkg, c.file, n, c.old)
			}
			mutated := filepath.Join(t.TempDir(), c.file)
			text := strings.Replace(string(src), c.old, c.new, 1)
			if err := os.WriteFile(mutated, []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
			files := slices.Clone(target.GoFiles)
			files[slices.Index(files, c.file)] = mutated
			fset := token.NewFileSet()
			pkg, err := checkPackage(fset, exportImporter(fset, exports), c.pkg, target.Dir, files)
			if err != nil {
				t.Fatalf("mutated %s no longer type-checks: %v", c.file, err)
			}
			// Every other module package rides along fact-only, as Load
			// would hand them over for `autoviewlint ./<pkg>`.
			pkgs := []*Package{pkg}
			for _, p := range m.pkgs {
				if p.Pkg.Path() != c.pkg {
					dep := *p
					dep.FactOnly = true
					pkgs = append(pkgs, &dep)
				}
			}
			diags, err := RunAnalyzers(Analyzers(), pkgs)
			if err != nil {
				t.Fatal(err)
			}
			if len(diags) != 1 || diags[0].Analyzer != c.analyzer || diags[0].Pos.Filename != mutated ||
				!strings.Contains(strings.Split(text, "\n")[diags[0].Pos.Line-1], c.at) {
				t.Fatalf("%s: want exactly one %s finding on the line holding %q, got %v", c.name, c.analyzer, c.at, diags)
			}
			// And it is that analyzer's catch: the suite without it is blind
			// to the mutation.
			rest := slices.DeleteFunc(Analyzers(), func(a *Analyzer) bool { return a.Name == c.analyzer })
			if diags, err = RunAnalyzers(rest, pkgs); err != nil || len(diags) != 0 {
				t.Fatalf("%s: without %s the suite should report nothing, got %v (err %v)", c.name, c.analyzer, diags, err)
			}
		})
	}
	for _, a := range Analyzers() {
		if !covered[a.Name] {
			t.Errorf("analyzer %s has no reintroduction case", a.Name)
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
