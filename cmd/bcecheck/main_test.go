package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// cleanKernel pairs its loop condition with the indices it loads, so
// the SSA backend eliminates every bounds check: the baseline a gate
// allowlist is built from.
const cleanKernel = `package bcefix

func Hot(x []float32) float32 {
	var s float32
	for i := 0; i < len(x); i++ {
		s += x[i]
	}
	return s
}
`

// regressedKernel strides past the proven index so x[i+1] is no longer
// provable — the exact class of edit the gate exists to catch.
const regressedKernel = `package bcefix

func Hot(x []float32) float32 {
	var s float32
	for i := 0; i < len(x); i += 2 {
		s += x[i+1]
	}
	return s
}
`

// writeFixtureModule lays down a throwaway module and chdirs into it so
// collect's go list/go build invocations resolve the fixture package.
func writeFixtureModule(t *testing.T, kernel string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module bcefix\n\ngo 1.24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	writeKernel(t, dir, kernel)
	t.Chdir(dir)
	return dir
}

func writeKernel(t *testing.T, dir, kernel string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, "kernel.go"), []byte(kernel), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGateCatchesReintroducedCheck is the end-to-end proof the ISSUE
// asks for: build a clean kernel, snapshot its (empty) allowlist, then
// reintroduce a bounds check and require the gate to fail naming the
// exact function and source line.
func TestGateCatchesReintroducedCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go toolchain; skipped in -short")
	}
	dir := writeFixtureModule(t, cleanKernel)
	cfg := config{pkg: "bcefix", files: "kernel.go"}

	counts, _, err := collect(cfg)
	if err != nil {
		t.Fatalf("collect clean: %v", err)
	}
	if len(counts) != 0 {
		t.Fatalf("clean kernel should have zero bounds checks, got %v", counts)
	}
	allow := filepath.Join(dir, "allow.txt")
	if err := writeAllowlist(allow, counts); err != nil {
		t.Fatal(err)
	}

	writeKernel(t, dir, regressedKernel)
	counts, sites, err := collect(cfg)
	if err != nil {
		t.Fatalf("collect regressed: %v", err)
	}
	allowed, err := readAllowlist(allow)
	if err != nil {
		t.Fatal(err)
	}
	violations := compare(counts, allowed, sites)
	if len(violations) == 0 {
		t.Fatal("gate passed a reintroduced bounds check")
	}
	msg := strings.Join(violations, "\n")
	// The unprovable load sits on line 6 of regressedKernel; the
	// failure must name both the function and that line.
	for _, want := range []string{"kernel.go:Hot", "kernel.go:6:"} {
		if !strings.Contains(msg, want) {
			t.Errorf("violation missing %q:\n%s", want, msg)
		}
	}
}

// TestGateAgainstRepoAllowlist runs the real gate configuration — the
// same invocation as `make check-bce` — and requires it to pass, so a
// kernel edit that shifts counts fails `go test ./...` too, not just
// the Makefile target.
func TestGateAgainstRepoAllowlist(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go toolchain; skipped in -short")
	}
	cfg := config{pkg: "autoview/internal/nn", files: defaultFiles}
	counts, sites, err := collect(cfg)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	path, err := cfg.allowlistPath()
	if err != nil {
		t.Fatal(err)
	}
	allowed, err := readAllowlist(path)
	if err != nil {
		t.Fatal(err)
	}
	if violations := compare(counts, allowed, sites); len(violations) != 0 {
		t.Errorf("gate fails against checked-in allowlist:\n%s", strings.Join(violations, "\n"))
	}
	// The whole point of gating kernels32.go is that its blocked inner
	// loops stay check-free; the per-block preamble/epilogue checks that
	// remain are bounded. Guard against the allowlist silently growing
	// past that regime.
	total := 0
	for _, n := range counts {
		total += n
	}
	if total > 120 {
		t.Errorf("gated files carry %d bounds checks; the kernels have lost their elimination structure", total)
	}
}

func TestParseBCEResolvesFunctions(t *testing.T) {
	spans := map[string][]funcSpan{
		"kernel.go": {{name: "A", begin: 3, end: 9}, {name: "T.B", begin: 11, end: 20}},
	}
	out := "# pkg\n" +
		"./kernel.go:5:9: Found IsInBounds\n" +
		"internal/nn/kernel.go:12:3: Found IsSliceInBounds\n" +
		"./other.go:4:1: Found IsInBounds\n" + // not gated
		"./kernel.go:6:2: some unrelated diagnostic\n"
	sites, err := parseBCE(out, map[string]bool{"kernel.go": true}, spans)
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != 2 {
		t.Fatalf("got %d sites, want 2: %+v", len(sites), sites)
	}
	if sites[0].fn != "A" || sites[0].line != 5 || sites[0].kind != "IsInBounds" {
		t.Errorf("site 0 = %+v", sites[0])
	}
	if sites[1].fn != "T.B" || sites[1].kind != "IsSliceInBounds" {
		t.Errorf("site 1 = %+v", sites[1])
	}
}

func TestCompareDirections(t *testing.T) {
	sites := []site{{file: "k.go", line: 40, col: 9, kind: "IsInBounds", fn: "F"}}
	got := map[string]int{"k.go:F": 1}

	if v := compare(got, map[string]int{"k.go:F": 1}, sites); len(v) != 0 {
		t.Errorf("equal counts should pass, got %v", v)
	}
	v := compare(got, map[string]int{"k.go:F": 0}, sites)
	if len(v) != 1 || !strings.Contains(v[0], "k.go:40:9") || !strings.Contains(v[0], "k.go:F") {
		t.Errorf("regression should name function and site, got %v", v)
	}
	v = compare(map[string]int{}, map[string]int{"k.go:F": 1}, nil)
	if len(v) != 1 || !strings.Contains(v[0], "-update") {
		t.Errorf("improvement should suggest -update, got %v", v)
	}
}

func TestAllowlistRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "allow.txt")
	in := map[string]int{"b.go:Z": 3, "a.go:A": 1}
	if err := writeAllowlist(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := readAllowlist(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) || out["a.go:A"] != 1 || out["b.go:Z"] != 3 {
		t.Errorf("round trip mismatch: %v", out)
	}
	if err := os.WriteFile(path, []byte("a.go:A one\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readAllowlist(path); err == nil {
		t.Error("malformed count should be rejected")
	}
}
