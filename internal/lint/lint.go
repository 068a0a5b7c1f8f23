// Package lint is a repo-specific static-analysis suite enforcing the
// invariants the reproduction's guarantees rest on: bit-identical
// training for any Parallelism setting, instrumentation that never
// perturbs RNG state, and golden-loss-trace stability. The analyzers
// mirror the golang.org/x/tools go/analysis vocabulary (Analyzer, Pass,
// Diagnostic) but are built on the standard library's go/ast + go/types
// only, so the module keeps zero external dependencies.
//
// The suite ships eight analyzers (see LINTING.md for the catalog):
//
//   - randsource: no ambient math/rand calls or time-seeded sources;
//     all randomness flows through an explicitly seeded *rand.Rand.
//   - maporder: no map-iteration-order leakage into slices, float
//     accumulators, or RNG draws.
//   - spanend: every obs.StartSpan result is ended (normally by defer).
//   - floateq: no ==/!= between floating-point operands.
//   - errdiscard: no silently dropped error returns in internal/.
//   - arenaescape: memory carved from an *nn.Arena must not outlive
//     the arena's Reset (no stores to fields, globals, or channels; no
//     returns except through an arena-parameter helper).
//   - poolpair: after v := Get from a sync.Pool, a Put of v comes
//     before anything that can leave the block (write defer, or waive).
//   - atomicfield: no function-style sync/atomic calls; shared words
//     are typed atomics.
//
// arenaescape and poolpair exchange cross-package function summaries
// ("facts", facts.go) so helper contracts in internal/nn propagate to
// call sites in widedeep, serve, and rl.
//
// One driver runs them: Load lists and type-checks the packages through
// `go list`, RunAnalyzers applies the suite in dependency order —
// cmd/autoviewlint (make lint) and TestLintSelfClean are the same two
// calls. Analyzers inspect non-test files only (the loader feeds them
// GoFiles, which excludes *_test.go); test-file hygiene stays with go
// vet.
// Intentional violations are suppressed with a trailing or preceding
//
//	//lint:allow <name> <reason>
//
// comment naming the analyzer.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check. Run is invoked once per
// loaded package and reports findings through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow suppression comments.
	Name string
	// Doc is the one-line invariant statement shown by -help.
	Doc string
	// Run analyzes a single package.
	Run func(*Pass) error
	// Facts, if set, extracts the package's exported function
	// summaries into pass.OwnFacts. RunAnalyzers calls it for every
	// package — dependencies included, in dependency order — before any
	// dependent's Run, so cross-package contracts propagate (facts.go).
	Facts func(*Pass) error
}

// A Pass carries one package's syntax and type information to an
// analyzer, plus the sink for its diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// Facts holds the summaries of every package analyzed so far (this
	// package's own Facts phase included); OwnFacts is the sink the
	// Facts phase writes this package's summaries into.
	Facts    *FactStore
	OwnFacts *PackageFacts

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, already resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Analyzers returns the full suite in catalog order.
func Analyzers() []*Analyzer {
	return []*Analyzer{RandSource, MapOrder, SpanEnd, FloatEq, ErrDiscard, ArenaEscape, PoolPair, AtomicField}
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// internalOnly marks analyzers that run only on packages under
// internal/ (per-analyzer scope applied by RunAnalyzers, not by Run, so
// fixture tests can exercise the analyzer on any package path).
var internalOnly = map[string]bool{"errdiscard": true}

// AppliesTo reports whether the analyzer's package scope includes the
// import path.
func AppliesTo(a *Analyzer, pkgPath string) bool {
	if internalOnly[a.Name] {
		return strings.Contains(pkgPath, "internal/")
	}
	return true
}

// RunAnalyzers applies every analyzer (within its scope) to each
// package, drops //lint:allow-suppressed findings, and returns the
// remaining diagnostics in file/position order. Packages are processed
// in dependency order and each package's fact phase runs before its
// diagnostic phase, so cross-package summaries (facts.go) reach their
// consumers; fact-only packages (dependencies loaded just for their
// summaries) contribute facts but no diagnostics.
func RunAnalyzers(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	diags, err := runAnalyzers(analyzers, pkgs, NewFactStore())
	if err != nil {
		return nil, err
	}
	return filterSuppressed(diags, pkgs), nil
}

// runAnalyzers is RunAnalyzers before suppression, over a caller-held
// store that accumulates every analyzed package's facts. The whole-module
// tests read both: the load-bearing facts must have been extracted, and
// every waiver must still cover a finding.
func runAnalyzers(analyzers []*Analyzer, pkgs []*Package, store *FactStore) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range topoSort(pkgs) {
		pass := &Pass{
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Pkg,
			Info:     pkg.Info,
			Facts:    store,
			OwnFacts: store.Pkg(pkg.Pkg.Path()),
			diags:    &diags,
		}
		for _, a := range analyzers {
			if a.Facts == nil || !AppliesTo(a, pkg.Pkg.Path()) {
				continue
			}
			pass.Analyzer = a
			if err := a.Facts(pass); err != nil {
				return nil, fmt.Errorf("%s facts: %s: %w", a.Name, pkg.Pkg.Path(), err)
			}
		}
		if pkg.FactOnly {
			continue
		}
		for _, a := range analyzers {
			if !AppliesTo(a, pkg.Pkg.Path()) {
				continue
			}
			pass.Analyzer = a
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Pkg.Path(), err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// A waiver is one //lint:allow comment: where it sits and the analyzer
// names it waives. A trailing comment covers its own line; a standalone
// comment line covers the line below it.
type waiver struct {
	file  string
	line  int
	names []string
}

// covers reports whether the waiver suppresses d.
func (w waiver) covers(d Diagnostic) bool {
	return d.Pos.Filename == w.file && (d.Pos.Line == w.line || d.Pos.Line == w.line+1) &&
		(slices.Contains(w.names, d.Analyzer) || slices.Contains(w.names, "all"))
}

// waivers lists the //lint:allow comments of files.
//
// A name may carry the audit tag — `//lint:allow floateq(audit) <why>` —
// marking the suppression as part of a vetted comparison helper (the
// single entry points ordinary code is supposed to call instead of
// comparing floats inline; see LINTING.md "Audit notes"). The tag is
// self-documenting for reviewers and greppable (`rg 'floateq\(audit\)'`
// lists every audited comparison); an unknown tag waives nothing, so a
// typo fails loud by letting the diagnostic through.
func waivers(fset *token.FileSet, files []*ast.File) []waiver {
	var out []waiver
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:allow ")
				if !ok {
					continue
				}
				// Everything after the leading run of analyzer names is a
				// free-form reason.
				pos := fset.Position(c.Pos())
				w := waiver{file: pos.Filename, line: pos.Line}
				for _, n := range strings.FieldsFunc(text, func(r rune) bool { return r == ',' || r == ' ' }) {
					if base, tag, tagged := strings.Cut(n, "("); tagged {
						if tag != "audit)" {
							break // unknown tag: waive nothing
						}
						n = base
					}
					if ByName(n) == nil && n != "all" {
						break
					}
					w.names = append(w.names, n)
				}
				out = append(out, w)
			}
		}
	}
	return out
}

func filterSuppressed(diags []Diagnostic, pkgs []*Package) []Diagnostic {
	var ws []waiver
	for _, pkg := range pkgs {
		ws = append(ws, waivers(pkg.Fset, pkg.Files)...)
	}
	return slices.DeleteFunc(diags, func(d Diagnostic) bool {
		return slices.ContainsFunc(ws, func(w waiver) bool { return w.covers(d) })
	})
}
