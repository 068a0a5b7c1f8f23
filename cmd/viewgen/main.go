// Command viewgen runs the end-to-end automatic view generation pipeline
// (Figure 3 of the paper) on a built-in or custom workload and prints the
// selected views plus the end-to-end savings report.
//
// Usage:
//
//	viewgen [-workload job|wk1|wk2] [-estimator actual|optimizer|wd]
//	        [-selector rlview|bigsub|iterview|localsearch|topkfreq|topkover|topkben|topknorm]
//	        [-schema schema.json -queries queries.sql]
//	        [-seed N] [-verbose] [-ddl]
//	        [-stats] [-obs-addr host:port] [-log-level debug|info|warn|error]
//
// -schema/-queries load a custom workload (JSON schema + SQL file)
// instead of a built-in one. -verbose prints the selected view plans and
// -ddl their CREATE MATERIALIZED VIEW statements.
//
// The observability flags are documented in OBSERVABILITY.md: -stats
// prints the metric registry snapshot after the run, -obs-addr serves
// /metrics, /debug/vars and /debug/pprof over HTTP while the run is in
// flight, and -log-level streams structured pipeline events to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"autoview/internal/core"
	"autoview/internal/engine"
	"autoview/internal/obs"
	"autoview/internal/plan"
	"autoview/internal/workload"
)

func main() {
	wl := flag.String("workload", "job", "built-in workload: job, wk1, wk2")
	schemaPath := flag.String("schema", "", "JSON schema file for a custom workload (with -queries)")
	queriesPath := flag.String("queries", "", "SQL file with the custom workload's queries")
	est := flag.String("estimator", "wd", "benefit estimator: actual, optimizer, wd")
	sel := flag.String("selector", "rlview", "view selector: rlview, bigsub, iterview, localsearch, topkfreq, topkover, topkben, topknorm")
	seed := flag.Int64("seed", 1, "random seed")
	verbose := flag.Bool("verbose", false, "print selected view plans")
	ddl := flag.Bool("ddl", false, "print CREATE MATERIALIZED VIEW statements for the selection")
	var obsFlags obs.Flags
	obsFlags.Register(flag.CommandLine)
	flag.Parse()

	if err := obsFlags.Start(os.Stderr); err != nil {
		fail(err)
	}

	w, err := workload.Open(*wl, *schemaPath, *queriesPath)
	if err != nil {
		fail(err)
	}
	cfg := core.ConfigFor(w.Name)
	cfg.Seed = *seed
	if cfg.Estimator, err = core.ParseEstimator(*est); err != nil {
		fail(err)
	}
	if cfg.Selector, err = core.ParseSelector(*sel); err != nil {
		fail(err)
	}

	fmt.Printf("workload %s: %d queries over %d tables\n", w.Name, len(w.Queries), w.Cat.Len())
	start := time.Now()
	adv := core.NewAdvisor(w.Cat, engine.New(w.Populate()), cfg)

	pre := adv.Preprocess(w.Plans())
	desc := w.Describe(pre)
	fmt.Printf("pre-process: %d subqueries, %d equivalent pairs, |Z|=%d candidates, |Q|=%d associated queries, %d overlapping pairs\n",
		desc.Subqueries, desc.EquivalentPairs, desc.Candidates, desc.AssociatedQuery, desc.OverlappingPairs)

	p, err := adv.BuildProblem(w.Plans(), pre)
	if err != nil {
		fail(err)
	}
	fmt.Printf("estimator %s: benefit matrix %d×%d assembled\n",
		cfg.Estimator, p.Instance.NumQueries(), p.Instance.NumViews())

	selection, err := adv.Select(p)
	if err != nil {
		fail(err)
	}
	fmt.Printf("selector %s: %d views selected, estimated utility $%.4f\n",
		selection.Method, selection.Selected(), selection.Utility)
	if *verbose {
		for j, z := range selection.Z {
			if !z {
				continue
			}
			cand := p.Candidates[j]
			fmt.Printf("-- view %s (shared by %d queries, overhead $%.5f)\n%s",
				cand.View.ID, len(cand.Queries), cand.Overhead, cand.View.Plan)
		}
	}

	if *ddl {
		for j, z := range selection.Z {
			if z {
				fmt.Println(plan.ViewDDL(p.Candidates[j].View.ID, p.Candidates[j].View.Plan))
			}
		}
	}

	rep, err := adv.Apply(p, selection)
	if err != nil {
		fail(err)
	}
	fmt.Println(rep)
	fmt.Printf("done in %v\n", time.Since(start).Round(time.Millisecond))

	obsFlags.Report(os.Stdout)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "viewgen:", err)
	os.Exit(1)
}
