// Command bcecheck is the bounds-check-elimination regression gate for
// the inference kernels (PERFORMANCE.md "BCE gate"). It builds
// internal/nn with the compiler's -d=ssa/check_bce diagnostic, which
// prints one line per bounds check the SSA backend could NOT eliminate,
// and compares the per-function counts in the gated files
// (kernels32.go, infer32.go, lanes32.go, the f32 serving forward's
// portable kernels, and lanes64.go, the batched f64 forward's) against
// the checked-in allowlist internal/nn/bce_allowlist.txt.
//
// The kernels are written so their hot loops carry no bounds checks
// (length hoisting, `_ = s[n-1]` hints); an edit that quietly
// reintroduces one costs double-digit percent throughput without
// failing any correctness test. This gate turns that silent regression
// into a CI failure naming the exact function and source line.
//
// Counts are keyed per function, not per line, so unrelated edits that
// shift line numbers don't churn the allowlist; it only changes when a
// function's real bounds-check count changes.
//
// Usage:
//
//	go run ./cmd/bcecheck            # gate (exit 1 on regression)
//	go run ./cmd/bcecheck -update    # rewrite the allowlist
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// defaultFiles are the gated files of internal/nn: the f32 kernels and
// mirrors, and the portable twins of the packed f32 and f64 kernels.
const defaultFiles = "kernels32.go,infer32.go,lanes32.go,lanes64.go"

func main() {
	var cfg config
	flag.StringVar(&cfg.pkg, "pkg", "autoview/internal/nn", "package to build with -d=ssa/check_bce")
	flag.StringVar(&cfg.files, "files", defaultFiles, "comma-separated gated files within the package")
	flag.StringVar(&cfg.allowlist, "allowlist", "", "allowlist path (default <pkg dir>/bce_allowlist.txt)")
	update := flag.Bool("update", false, "rewrite the allowlist from the current build instead of gating")
	flag.Parse()

	counts, sites, err := collect(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bcecheck: %v\n", err)
		os.Exit(1)
	}
	path, err := cfg.allowlistPath()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bcecheck: %v\n", err)
		os.Exit(1)
	}

	if *update {
		if err := writeAllowlist(path, counts); err != nil {
			fmt.Fprintf(os.Stderr, "bcecheck: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("bcecheck: wrote %s (%d functions)\n", path, len(counts))
		return
	}

	allowed, err := readAllowlist(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bcecheck: %v (run with -update to create it)\n", err)
		os.Exit(1)
	}
	violations := compare(counts, allowed, sites)
	if len(violations) == 0 {
		fmt.Printf("bcecheck: ok — %s bounds-check counts match %s\n", cfg.files, filepath.Base(path))
		return
	}
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "bcecheck: "+v)
	}
	fmt.Fprintf(os.Stderr, "bcecheck: FAIL — a bounds check was reintroduced into a gated kernel file.\n")
	fmt.Fprintf(os.Stderr, "  Restore elimination (hoist lengths, add `_ = s[n-1]` hints; see PERFORMANCE.md \"BCE gate\"),\n")
	fmt.Fprintf(os.Stderr, "  or, if the new check is deliberate, refresh the allowlist: go run ./cmd/bcecheck -update\n")
	os.Exit(1)
}

func (c config) gatedFiles() map[string]bool {
	out := make(map[string]bool)
	for _, f := range strings.Split(c.files, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out[f] = true
		}
	}
	return out
}
