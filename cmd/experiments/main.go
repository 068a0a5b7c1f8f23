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
	stats := flag.Bool("stats", false, "print the observability registry snapshot after the run")
	obsAddr := flag.String("obs-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
	logLevel := flag.String("log-level", "", "stream structured events to stderr at this level: debug, info, warn, error")
	flag.Parse()

	if h, err := obs.Setup(*stats, *obsAddr, *logLevel, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	} else if h.Addr() != "" {
		fmt.Fprintf(os.Stderr, "observability endpoint on http://%s\n", h.Addr())
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

	if *stats {
		fmt.Print("\nobservability snapshot:\n", obs.Default.Snapshot().Text())
	}
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
	case "fig1":
		r, err := experiments.Fig1(scale)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "tab1":
		r, err := experiments.Tab1(scale)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "tab2":
		return experiments.Tab2(), nil
	case "tab3":
		r, err := experiments.Tab3(scale)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "fig9":
		r, err := experiments.Fig9(scale)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "tab4":
		r, err := experiments.Tab4(scale)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "fig10":
		r, err := experiments.Fig10(scale)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "tab5":
		r, err := experiments.Tab5(scale)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "ablation":
		r, err := experiments.Ablations(scale)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	default:
		return "", fmt.Errorf("unknown experiment %q", id)
	}
}
