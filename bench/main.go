// Command bench is the repository's benchmark: one command that builds
// the real viewserverd and viewgen binaries, drives them from outside,
// checks their answers, and prints every metric of BENCHMARK.json by
// name with its unit. README.md explains the workloads and the metrics.
//
// Usage (from the repository root; bench/run.sh builds and runs it):
//
//	bench -workload NAME|all [-seed N] [-seconds N] [-trace 0|1] [-runs N] [-out DIR]
//	bench -diff A.json B.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics of the
// last run with -trace 0, its per-layer metrics with -trace 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"autoview/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 0, "length of the timed window (0 = run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	runs := fs.Int("runs", 1, "repeat each workload this many times and report median and quartiles")
	out := fs.String("out", filepath.Join("bench", "out"), "directory the result file is written to")
	diff := fs.Bool("diff", false, "compare two result files: bench -diff A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "bench: run from the repository root:", err)
		return 2
	}
	if *diff {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -diff takes two result files")
			return 2
		}
		return runDiff(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	names := []string{*wl}
	if *wl == "all" {
		names = workloadNames
	}
	if *wl == "" || *runs < 1 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}

	// SIGINT/SIGTERM cancel the run; every workload kills its children
	// and removes its scratch on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	h, err := newHarness(ctx, *seed, *seconds, *trace == 1, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	file := &resultFile{Schema: schemaVersion, Env: collectEnv(), Seed: *seed}
	for _, name := range names {
		for i := 0; i < *runs; i++ {
			r := h.run(ctx, name)
			file.Runs = append(file.Runs, r)
			printRun(stdout, spec, r)
			if ctx.Err() != nil {
				fmt.Fprintln(stderr, "bench: interrupted")
				return 1
			}
		}
	}
	file.Summary = summarizeRuns(spec, file.Runs)
	if *runs > 1 {
		printSummary(stdout, file.Summary)
	}
	tag := fmt.Sprintf("%s-seed%d-trace%d", *wl, *seed, *trace)
	path, err := writeResultFile(*out, file, tag)
	if err != nil {
		fmt.Fprintln(stderr, "bench: write the result file:", err)
		return 1
	}
	fmt.Fprintln(stdout, "result file:", path)

	last := file.Runs[len(file.Runs)-1]
	line, err := spec.project(last)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		for _, f := range last.Failures {
			fmt.Fprintln(stderr, "bench: failed:", f)
		}
		if last.DaemonStderr != "" {
			fmt.Fprintln(stderr, "bench: child stderr:\n"+last.DaemonStderr)
		}
		return 1
	}
	raw, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(raw))
	return 0
}

// newHarness builds the binaries under test and generates what every
// workload shares. Building happens inside the checkout (.bench_build)
// and is not part of any set-up time.
func newHarness(ctx context.Context, seed int64, seconds int, trace bool, stderr io.Writer) (*harness, error) {
	if _, err := os.Stat(filepath.Join("cmd", "viewserverd")); err != nil {
		return nil, errors.New("run from the repository root: cmd/viewserverd is not here")
	}
	buildDir, err := filepath.Abs(".bench_build")
	if err != nil {
		return nil, err
	}
	h := &harness{buildDir: buildDir, seed: seed, seconds: seconds, trace: trace}
	binDir := filepath.Join(buildDir, "bin")
	if err := goBuild(ctx, binDir, stderr); err != nil {
		return nil, err
	}
	if trace {
		// build.compile_s: recompile every package of this module (the
		// standard library stays cached). -D is unused in module mode, so
		// a fresh value only changes the cache key.
		nonce := fmt.Sprintf("autoview/...=-D=bench%d", time.Now().UnixNano())
		scratch, err := h.tempDir("compile")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		err = goBuild(ctx, scratch, stderr, "-gcflags", nonce)
		h.compileS = time.Since(start).Seconds()
		if rmErr := os.RemoveAll(scratch); err == nil {
			err = rmErr
		}
		if err != nil {
			return nil, err
		}
	}
	h.serverBin = filepath.Join(binDir, "viewserverd")
	h.viewgenBin = filepath.Join(binDir, "viewgen")
	for _, q := range workload.WK1().Queries {
		h.queries = append(h.queries, q.SQL)
	}
	h.tmpl = templatesOf(h.queries)
	if len(h.tmpl) == 0 {
		return nil, errors.New("no wk1 query has the shape the novel-literal generator rewrites")
	}
	return h, nil
}

// goBuild builds the two commands into dir.
func goBuild(ctx context.Context, dir string, stderr io.Writer, flags ...string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	args := append([]string{"build"}, flags...)
	args = append(args, "-o", dir+string(filepath.Separator), "./cmd/viewserverd", "./cmd/viewgen")
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Stdout = stderr
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	return nil
}

// printRun prints every metric of one run by name with its unit.
func printRun(w io.Writer, spec *benchSpec, r *runResult) {
	attempted, failed := r.totals()
	fmt.Fprintf(w, "== %s seed=%d seconds=%d trace=%v wall=%.1fs: %d operations, %d failed\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.WallS, attempted, failed)
	for _, m := range spec.EndToEnd {
		if v, ok := r.EndToEnd[m.Name]; ok {
			fmt.Fprintf(w, "  %-28s %14.4f %-5s (%s is better, bound %.0f%%)\n", m.Name, v.Value, v.Unit, m.Better, m.Bound*100)
		}
	}
	for _, name := range sortedKeys(r.Timings) {
		t := r.Timings[name]
		fmt.Fprintf(w, "  timing %-21s median %.4f ms, p%v %.4f ms, n=%d\n", name, t.MedianMS, t.Tail, t.TailMS, t.N)
	}
	for _, name := range sortedKeys(r.Ops) {
		c := r.Ops[name]
		fmt.Fprintf(w, "  ops %-24s attempted %d ok %d failed %d\n", name, c.Attempted, c.OK, c.Failed)
	}
	for _, name := range sortedKeys(r.Notes) {
		fmt.Fprintf(w, "  note %-23s %14.4f\n", name, r.Notes[name])
	}
	for _, name := range sortedKeys(r.Exact) {
		fmt.Fprintf(w, "  exact %-22s %s\n", name, r.Exact[name])
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	if !r.Trace {
		return
	}
	for _, m := range spec.PerLayer {
		if v, ok := r.PerLayer[m.Name]; ok {
			fmt.Fprintf(w, "  layer %-34s %16.4f %s\n", m.Name, v.Value, v.Unit)
		}
	}
	for _, row := range r.Reconcile {
		fmt.Fprintf(w, "  reconcile %s: %s = %.4f %s, layers sum to %.4f, unattributed share %.3f: %s\n",
			row.Table, row.Parent, row.ParentValue, row.Unit, row.LayerSum, row.Unattributed, row.Verdict)
		for _, name := range sortedKeys(row.Layers) {
			fmt.Fprintf(w, "      %-34s %14.4f %s\n", name, row.Layers[name], row.Unit)
		}
	}
}

func printSummary(w io.Writer, summary map[string]map[string]summaryStat) {
	for _, wl := range sortedKeys(summary) {
		fmt.Fprintf(w, "== %s over runs\n", wl)
		for _, name := range sortedKeys(summary[wl]) {
			s := summary[wl][name]
			spread := 0.0
			if s.Median != 0 { //lint:allow floateq guards the division only
				spread = (s.Q3 - s.Q1) / s.Median
			}
			fmt.Fprintf(w, "  %-28s n=%d median %.4f q1 %.4f q3 %.4f %s, spread %.1f%% of the median (bound %.0f%%)\n",
				name, s.N, s.Median, s.Q1, s.Q3, s.Unit, spread*100, s.Bound*100)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
