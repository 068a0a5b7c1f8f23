// Command autoviewlint runs the repo's determinism and
// resource-discipline lint suite (internal/lint), eight analyzers:
// randsource, maporder, spanend, floateq, errdiscard, arenaescape,
// poolpair, atomicfield. See LINTING.md for the analyzer catalog and
// the //lint:allow suppression syntax.
//
//	autoviewlint [-analyzers a,b] [packages]   # default ./...
//
// The packages are listed and type-checked in process (lint.Load, one
// `go list -export -deps`) and analyzed in dependency order, so the
// dataflow analyzers' per-function facts — "returns arena-backed
// memory", "hands out pooled values", "returns its parameter to the
// pool" — are enforced at call sites in other packages. `make lint` and
// internal/lint's TestLintSelfClean run this same path.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"autoview/internal/lint"
)

func main() {
	names := flag.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	flag.Usage = usage
	flag.Parse()

	analyzers, err := selectAnalyzers(*names)
	if err != nil {
		fatal(err)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fatal(err)
	}
	diags, err := lint.RunAnalyzers(analyzers, pkgs)
	if err != nil {
		fatal(err)
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s\n", d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

func selectAnalyzers(names string) ([]*lint.Analyzer, error) {
	if names == "" {
		return lint.Analyzers(), nil
	}
	var out []*lint.Analyzer
	for _, n := range strings.Split(names, ",") {
		a := lint.ByName(strings.TrimSpace(n))
		if a == nil {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: autoviewlint [-analyzers names] [packages]\n\nanalyzers:\n")
	for _, a := range lint.Analyzers() {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
	}
	flag.PrintDefaults()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "autoviewlint: %v\n", err)
	os.Exit(1)
}
