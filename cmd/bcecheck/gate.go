package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// config describes one gate run.
type config struct {
	pkg       string // import path built with -d=ssa/check_bce
	files     string // comma-separated gated file names inside the package
	allowlist string // allowlist path override ("" = <pkg dir>/bce_allowlist.txt)
}

// A site is one bounds check the compiler kept, resolved to the
// enclosing top-level function.
type site struct {
	file string // base name, e.g. kernels32.go
	line int
	col  int
	kind string // IsInBounds | IsSliceInBounds
	fn   string // enclosing function, e.g. dotVU or Model32.predict
}

// bceLine matches the -d=ssa/check_bce diagnostic lines.
var bceLine = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): Found (IsInBounds|IsSliceInBounds)$`)

// collect builds the package with the check_bce diagnostic and returns
// the per-function counts (key "file:func") plus every resolved site in
// the gated files.
func collect(cfg config) (map[string]int, []site, error) {
	dir, err := pkgDir(cfg.pkg)
	if err != nil {
		return nil, nil, err
	}
	gated := cfg.gatedFiles()
	for f := range gated {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			return nil, nil, fmt.Errorf("gated file %s: %v", f, err)
		}
	}
	spans, err := funcSpans(dir, gated)
	if err != nil {
		return nil, nil, err
	}

	// go build prints the diagnostics on stderr and replays them from
	// the build cache on repeat runs, so the gate sees the same output
	// whether or not the package was just compiled.
	cmd := exec.Command("go", "build", "-gcflags="+cfg.pkg+"=-d=ssa/check_bce", cfg.pkg)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, nil, fmt.Errorf("go build %s: %v\n%s", cfg.pkg, err, out)
	}

	sites, err := parseBCE(string(out), gated, spans)
	if err != nil {
		return nil, nil, err
	}
	counts := make(map[string]int)
	for _, s := range sites {
		counts[s.file+":"+s.fn]++
	}
	return counts, sites, nil
}

// parseBCE extracts the bounds-check sites in the gated files from the
// compiler output, resolving each to its enclosing function.
func parseBCE(output string, gated map[string]bool, spans map[string][]funcSpan) ([]site, error) {
	var sites []site
	sc := bufio.NewScanner(strings.NewReader(output))
	for sc.Scan() {
		m := bceLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		base := filepath.Base(m[1])
		if !gated[base] {
			continue
		}
		line, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		fn := funcAt(spans[base], line)
		if fn == "" {
			return nil, fmt.Errorf("%s:%d: bounds check outside any function", base, line)
		}
		sites = append(sites, site{file: base, line: line, col: col, kind: m[4], fn: fn})
	}
	return sites, sc.Err()
}

// funcSpan is one top-level function's line range within a file.
type funcSpan struct {
	name       string
	begin, end int
}

// funcSpans parses each gated file and maps it to its function spans.
// Methods are keyed Recv.Name so the allowlist reads like the fact keys
// in internal/lint.
func funcSpans(dir string, gated map[string]bool) (map[string][]funcSpan, error) {
	fset := token.NewFileSet()
	out := make(map[string][]funcSpan)
	for base := range gated {
		f, err := parser.ParseFile(fset, filepath.Join(dir, base), nil, 0)
		if err != nil {
			return nil, err
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) > 0 {
				if r := recvTypeName(fd.Recv.List[0].Type); r != "" {
					name = r + "." + name
				}
			}
			out[base] = append(out[base], funcSpan{
				name:  name,
				begin: fset.Position(fd.Pos()).Line,
				end:   fset.Position(fd.End()).Line,
			})
		}
	}
	return out, nil
}

func recvTypeName(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.StarExpr:
		return recvTypeName(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(e.X)
	}
	return ""
}

func funcAt(spans []funcSpan, line int) string {
	for _, s := range spans {
		if line >= s.begin && line <= s.end {
			return s.name
		}
	}
	return ""
}

// compare returns one human-readable violation per function whose
// bounds-check count exceeds (or newly misses) the allowlist, naming
// the exact sites. Counts below the allowlist are reported too — the
// allowlist should be refreshed so the win is locked in.
func compare(counts map[string]int, allowed map[string]int, sites []site) []string {
	var out []string
	keys := make(map[string]bool, len(counts)+len(allowed))
	for k := range counts {
		keys[k] = true
	}
	for k := range allowed {
		keys[k] = true
	}
	for _, k := range sortedKeys(keys) {
		got, want := counts[k], allowed[k]
		if got == want {
			continue
		}
		if got > want {
			msg := fmt.Sprintf("%s: %d bounds checks, allowlist permits %d:", k, got, want)
			for _, s := range sites {
				if s.file+":"+s.fn == k {
					msg += fmt.Sprintf("\n    %s:%d:%d: Found %s (in %s)", s.file, s.line, s.col, s.kind, s.fn)
				}
			}
			out = append(out, msg)
		} else {
			out = append(out, fmt.Sprintf("%s: %d bounds checks, allowlist expects %d — elimination improved; run -update to lock it in", k, got, want))
		}
	}
	return out
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// pkgDir resolves the package's source directory.
func pkgDir(pkg string) (string, error) {
	out, err := exec.Command("go", "list", "-f", "{{.Dir}}", pkg).Output()
	if err != nil {
		return "", fmt.Errorf("go list %s: %v", pkg, err)
	}
	return strings.TrimSpace(string(out)), nil
}

func (c config) allowlistPath() (string, error) {
	if c.allowlist != "" {
		return c.allowlist, nil
	}
	dir, err := pkgDir(c.pkg)
	if err != nil {
		return "", err
	}
	return filepath.Join(dir, "bce_allowlist.txt"), nil
}

// readAllowlist parses "file:func count" lines; #-comments and blanks
// are skipped.
func readAllowlist(path string) (map[string]int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int)
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s:%d: want \"file:func count\", got %q", path, i+1, line)
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad count %q", path, i+1, fields[1])
		}
		out[fields[0]] = n
	}
	return out, nil
}

// writeAllowlist emits the allowlist sorted by key with a header
// explaining the contract.
func writeAllowlist(path string, counts map[string]int) error {
	keys := make(map[string]bool, len(counts))
	for k := range counts {
		keys[k] = true
	}
	var b strings.Builder
	b.WriteString("# Bounds checks the compiler keeps in the gated kernel files\n")
	b.WriteString("# (-d=ssa/check_bce output, counted per function). make check-bce fails\n")
	b.WriteString("# when a count rises — a bounds check was reintroduced into a hot loop —\n")
	b.WriteString("# and when one falls, so improvements get locked in too.\n")
	b.WriteString("# Regenerate deliberately with: go run ./cmd/bcecheck -update\n")
	for _, k := range sortedKeys(keys) {
		fmt.Fprintf(&b, "%s %d\n", k, counts[k])
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
