// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-run all|fig1|tab1|tab2|tab3|fig9|tab4|fig10|tab5|ablation|tournament]
//	            [-full] [-spec "families=JOB;sizes=4,8,12;seed=1"] [-out BENCH_10.json]
//	            [-stats] [-obs-addr host:port] [-log-level debug|info|warn|error]
//
// -run tournament races every selector (Top-kBen, IterView, DQN, local
// search) across the workload families at growing |Z|, each rung against
// its exact optimum; -spec tunes the grid (see
// experiments.ParseTournamentSpec) and -out writes the machine-readable
// frontier JSON. The run fails if the differential gate (per-selector
// optimality-gap bounds, on every rung) does not hold.
//
// By default a reduced-budget ("quick") configuration is used; -full runs
// the Table II budgets on the full-size workloads.
//
// The observability flags are shared with viewgen and documented in
// OBSERVABILITY.md; long -full runs are the main consumer of -obs-addr's
// live /metrics and /debug/pprof endpoints.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"autoview/internal/experiments"
	"autoview/internal/obs"
)

func main() {
	run := flag.String("run", "all", "experiment id: all, fig1, tab1, tab2, tab3, fig9, tab4, fig10, tab5, ablation, tournament")
	full := flag.Bool("full", false, "use the full Table II budgets (slower)")
	spec := flag.String("spec", "", "tournament grid spec, e.g. families=JOB;sizes=4,8,12;seed=1")
	out := flag.String("out", "", "write the tournament frontier JSON to this file")
	var obsFlags obs.Flags
	obsFlags.Register(flag.CommandLine)
	flag.Parse()

	if err := obsFlags.Start(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	scale := experiments.Quick
	if *full {
		scale = experiments.Full
	}

	ids := strings.Split(*run, ",")
	if *run == "all" {
		ids = []string{"fig1", "tab1", "tab2", "tab3", "fig9", "tab4", "fig10", "tab5", "ablation"}
	}
	for _, id := range ids {
		start := time.Now()
		text, err := runOne(strings.TrimSpace(id), scale, *spec, *out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Print(text)
		fmt.Printf("  (%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}

	obsFlags.Report(os.Stdout)
}

func runOne(id string, scale experiments.Scale, spec, out string) (string, error) {
	switch id {
	case "tournament":
		ts, err := experiments.ParseTournamentSpec(spec)
		if err != nil {
			return "", err
		}
		r, err := experiments.Tournament(scale, ts)
		if err != nil {
			return "", err
		}
		if err := r.Check(); err != nil {
			return "", err
		}
		if out != "" {
			data, err := r.JSON()
			if err != nil {
				return "", err
			}
			if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
				return "", err
			}
		}
		return r.Render(), nil
	case "tab2":
		return experiments.Tab2(), nil
	default:
		if f, ok := rendered[id]; ok {
			return f(scale)
		}
		return "", fmt.Errorf("unknown experiment %q", id)
	}
}

// rendered maps an experiment id to its function, adapted to return the
// rendered text.
var rendered = map[string]func(experiments.Scale) (string, error){
	"fig1":     render(experiments.Fig1),
	"tab1":     render(experiments.Tab1),
	"tab3":     render(experiments.Tab3),
	"fig9":     render(experiments.Fig9),
	"tab4":     render(experiments.Tab4),
	"fig10":    render(experiments.Fig10),
	"tab5":     render(experiments.Tab5),
	"ablation": render(experiments.Ablations),
}

func render[R interface{ Render() string }](f func(experiments.Scale) (R, error)) func(experiments.Scale) (string, error) {
	return func(s experiments.Scale) (string, error) {
		r, err := f(s)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}
}
