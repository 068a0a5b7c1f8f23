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
//   - floateq: no ==/!= between floating-point operands outside tests.
//   - errdiscard: no silently dropped error returns in internal/.
//   - arenaescape: memory carved from an *nn.Arena must not outlive
//     the arena's Reset (no stores to fields, globals, or channels; no
//     returns except through an arena-parameter helper).
//   - poolpair: every sync.Pool Get reaches a matching Put on all
//     paths (the retention-cap drop idiom is recognized).
//   - atomicfield: a struct field accessed through sync/atomic
//     anywhere is accessed atomically everywhere.
//
// The last three are dataflow-aware and exchange cross-package function
// and field summaries ("facts", facts.go) so helper contracts in
// internal/nn propagate to call sites in widedeep, serve, and rl.
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
	// Facts, if set, extracts the package's exported function/field
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
	return runAnalyzers(analyzers, pkgs, NewFactStore())
}

// runAnalyzers is RunAnalyzers over a caller-held store, which
// accumulates every analyzed package's facts (TestLintSelfClean asserts
// the load-bearing ones were extracted).
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
	diags = filterSuppressed(diags, pkgs)
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

// allowKey identifies a (file, line) pair that a suppression comment
// covers.
type allowKey struct {
	file string
	line int
}

// allowedLines maps every line covered by a //lint:allow comment to the
// analyzer names it waives. A trailing comment covers its own line; a
// standalone comment line covers the line below it.
//
// A name may carry the audit tag — `//lint:allow floateq(audit) <why>` —
// marking the suppression as part of a vetted comparison helper (the
// single entry points ordinary code is supposed to call instead of
// comparing floats inline; see LINTING.md "Audit notes"). The tag is
// self-documenting for reviewers and greppable (`rg 'floateq\(audit\)'`
// lists every audited comparison); an unknown tag waives nothing, so a
// typo fails loud by letting the diagnostic through.
func allowedLines(fset *token.FileSet, files []*ast.File) map[allowKey][]string {
	allowed := make(map[allowKey][]string)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:allow ")
				if !ok {
					continue
				}
				names := strings.FieldsFunc(strings.TrimSpace(text), func(r rune) bool {
					return r == ',' || r == ' '
				})
				if len(names) == 0 {
					continue
				}
				// Everything after the first comma-free token run is a
				// free-form reason; only leading tokens that match an
				// analyzer name count.
				var waived []string
				for _, n := range names {
					if base, tag, tagged := strings.Cut(n, "("); tagged {
						tag, closed := strings.CutSuffix(tag, ")")
						if !closed || tag != "audit" {
							break // unknown tag: waive nothing
						}
						n = base
					}
					if ByName(n) == nil && n != "all" {
						break
					}
					waived = append(waived, n)
				}
				pos := fset.Position(c.Pos())
				for _, l := range []int{pos.Line, pos.Line + 1} {
					k := allowKey{pos.Filename, l}
					allowed[k] = append(allowed[k], waived...)
				}
			}
		}
	}
	return allowed
}

func filterSuppressed(diags []Diagnostic, pkgs []*Package) []Diagnostic {
	allowed := make(map[allowKey][]string)
	for _, pkg := range pkgs {
		for k, v := range allowedLines(pkg.Fset, pkg.Files) {
			allowed[k] = append(allowed[k], v...)
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		names := allowed[allowKey{d.Pos.Filename, d.Pos.Line}]
		waived := false
		for _, n := range names {
			if n == d.Analyzer || n == "all" {
				waived = true
				break
			}
		}
		if !waived {
			kept = append(kept, d)
		}
	}
	return kept
}
