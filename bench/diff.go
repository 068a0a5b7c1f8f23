package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// bench -diff A.json B.json: one row per workload and end-to-end metric,
// judged with the bounds BENCHMARK.json fixes. A is the parent, B the
// change. README.md, "Reading -diff", explains the verdicts.

const (
	verdictImproved   = "improved"
	verdictWithin     = "within bound"
	verdictRegressed  = "REGRESSED"
	verdictUnresolved = "unresolved"
)

// noteBound gates a measurement that only some workloads have, and that
// therefore cannot be an end-to-end metric of BENCHMARK.json (every
// workload reports every one of those). Absolute bounds are in the
// note's own unit.
type noteBound struct {
	name     string
	workload string // "" for every workload
	better   string
	bound    float64
	absolute bool
}

var noteBounds = []noteBound{
	// r_c is the paper's headline number and must not fall.
	{name: "saved_cost_ratio_pct", workload: wlPipeline, better: "higher", bound: 0.5, absolute: true},
	{name: "ingest_queries_per_s", workload: wlMixed, better: "higher", bound: 0.10},
	{name: "restart_ready_s", workload: wlMixed, better: "lower", bound: 0.25},
	// Measured on every workload, but too unsteady on the build box to be
	// end-to-end metrics of BENCHMARK.json.
	{name: noteItems, better: "higher", bound: 0.25},
	{name: noteP99, better: "lower", bound: 0.25},
	{name: noteAdvise, better: "lower", bound: 0.25},
	{name: notePeakRSS, better: "lower", bound: 0.25},
}

func readResultFile(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != schemaVersion {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, schemaVersion)
	}
	return &f, nil
}

// judge compares two sets of values of one metric. worse is how much B's
// median is worse than A's (negative when better), spread the wider of
// the two sets' interquartile ranges; both are shares of A's median
// unless the bound is absolute.
func judge(a, b []float64, better string, bound float64, absolute bool) (verdict string, medA, medB, worse, spread float64) {
	q1a, medA, q3a := quartiles(a)
	q1b, medB, q3b := quartiles(b)
	worse = medB - medA
	if better == "higher" {
		worse = -worse
	}
	spread = math.Max(q3a-q1a, q3b-q1b)
	if !absolute {
		if medA == 0 { //lint:allow floateq guards the division only
			return verdictUnresolved, medA, medB, 0, 0
		}
		worse /= math.Abs(medA)
		spread /= math.Abs(medA)
	}
	switch {
	case spread > bound:
		verdict = verdictUnresolved
	case worse > bound:
		verdict = verdictRegressed
	case -worse > spread && worse < 0:
		verdict = verdictImproved
	default:
		verdict = verdictWithin
	}
	return verdict, medA, medB, worse, spread
}

// failRatio is failed ÷ attempted over the untraced runs of a workload.
func failRatio(f *resultFile, workload string) float64 {
	attempted, failed := 0, 0
	for _, r := range f.Runs {
		if r.Workload != workload || r.Trace {
			continue
		}
		a, fl := r.totals()
		attempted += a
		failed += fl
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func noteValues(f *resultFile, workload, name string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if v, ok := r.Notes[name]; ok && r.Workload == workload && !r.Trace {
			out = append(out, v)
		}
	}
	return out
}

// exactOf returns the exact counts of the first untraced run of a
// workload.
func exactOf(f *resultFile, workload string) map[string]string {
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Trace {
			return r.Exact
		}
	}
	return nil
}

func runDiff(spec *benchSpec, pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResultFile(pathA)
	if err == nil {
		var b *resultFile
		if b, err = readResultFile(pathB); err == nil {
			return diffFiles(spec, a, b, stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

func diffFiles(spec *benchSpec, a, b *resultFile, w io.Writer) int {
	bad := 0
	fmt.Fprintf(w, "A: commit %s, seed %d; B: commit %s, seed %d\n", a.Env.Commit, a.Seed, b.Env.Commit, b.Seed)
	for _, wl := range workloadNames {
		sa, sb := a.Summary[wl], b.Summary[wl]
		if sa == nil || sb == nil {
			continue
		}
		fmt.Fprintf(w, "== %s\n", wl)
		row := func(name, unit, better string, va, vb []float64, bound float64, absolute bool) {
			verdict, medA, medB, worse, spread := judge(va, vb, better, bound, absolute)
			if verdict == verdictRegressed {
				bad++
			}
			scale, suffix := 100.0, "%"
			if absolute {
				scale, suffix = 1, " "+unit
			}
			fmt.Fprintf(w, "  %-24s A %12.4f  B %12.4f %-5s %+7.2f%s worse, spread %.2f%s, bound %.2f%s (n=%d/%d): %s\n",
				name, medA, medB, unit, worse*scale, suffix, spread*scale, suffix, bound*scale, suffix, len(va), len(vb), verdict)
		}
		for _, m := range spec.EndToEnd {
			ma, okA := sa[m.Name]
			mb, okB := sb[m.Name]
			if okA && okB {
				row(m.Name, m.Unit, m.Better, ma.Values, mb.Values, m.Bound, false)
			}
		}
		for _, nb := range noteBounds {
			va, vb := noteValues(a, wl, nb.name), noteValues(b, wl, nb.name)
			if (nb.workload == wl || nb.workload == "") && len(va) > 0 && len(vb) > 0 {
				row(nb.name, "", nb.better, va, vb, nb.bound, nb.absolute)
			}
		}
		fa, fb := failRatio(a, wl), failRatio(b, wl)
		verdict := verdictWithin
		if fb > fa {
			verdict = verdictRegressed
			bad++
		}
		fmt.Fprintf(w, "  %-24s A %12.6f  B %12.6f       any increase is a regression: %s\n", "fail_ratio", fa, fb, verdict)
		if a.Seed == b.Seed {
			ea, eb := exactOf(a, wl), exactOf(b, wl)
			for _, k := range sortedKeys(ea) {
				if vb, ok := eb[k]; ok && vb != ea[k] {
					fmt.Fprintf(w, "  exact %-18s changed: A %q, B %q\n", k, ea[k], vb)
				}
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d regression(s)\n", bad)
		return 1
	}
	fmt.Fprintln(w, "no regression")
	return 0
}
