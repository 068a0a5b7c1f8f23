// Joborder runs the full pipeline on the JOB-like workload (the IMDB
// schema with 226 multi-join queries): pre-process, measure benefits,
// select views with RLView, apply, and compare against the BigSub
// baseline.
package main

import (
	"fmt"
	"log"
	"sort"

	"autoview/internal/core"
	"autoview/internal/metrics"
	"autoview/internal/workload"
)

func main() {
	w := workload.JOB()
	fmt.Printf("JOB workload: %d queries over the %d-table IMDB schema\n",
		len(w.Queries), w.Cat.Len())

	cfg := core.DefaultConfig()
	cfg.Estimator = core.EstimatorActual // measured benefits for the demo
	cfg.RL.Epochs = 30                   // trimmed for example runtime
	cfg.RL.LearnEvery = 2

	adv, pre := core.BringUp(w, cfg)
	fmt.Printf("pre-process: |Z|=%d candidates, %d overlapping pairs\n",
		len(pre.Candidates), pre.OverlappingPairs())

	p, err := adv.BuildProblem(w.Plans(), pre)
	if err != nil {
		log.Fatal(err)
	}

	// RLView selection.
	cfg.Selector = core.SelectorRLView
	adv.Cfg = cfg
	rlSel, err := adv.Select(p)
	if err != nil {
		log.Fatal(err)
	}
	rlReport, err := adv.Apply(p, rlSel)
	if err != nil {
		log.Fatal(err)
	}

	// BigSub baseline on the same problem.
	cfg.Selector = core.SelectorBigSub
	adv.Cfg = cfg
	bsSel, err := adv.Select(p)
	if err != nil {
		log.Fatal(err)
	}
	bsReport, err := adv.Apply(p, bsSel)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nend-to-end comparison:")
	fmt.Println(" ", rlReport)
	fmt.Println(" ", bsReport)
	fmt.Printf("RLView saves %.2f%% vs BigSub %.2f%% (improvement %.1f%%)\n",
		rlReport.SavedRatio, bsReport.SavedRatio,
		metrics.Improvement(rlReport.SavedRatio, bsReport.SavedRatio))

	// Show the most valuable selected views.
	type pick struct {
		id     string
		shares int
		net    float64
	}
	var picks []pick
	bmax := p.Instance.MaxBenefits()
	for j, z := range rlSel.Z {
		if !z {
			continue
		}
		c := p.Candidates[j]
		picks = append(picks, pick{c.View.ID, len(c.Queries), bmax[j] - c.Overhead})
	}
	sort.Slice(picks, func(a, b int) bool { return picks[a].net > picks[b].net })
	fmt.Println("\ntop selected views (by net benefit ceiling):")
	for i, pk := range picks {
		if i == 5 {
			break
		}
		fmt.Printf("  %s shared by %d queries, net ceiling $%.5f\n", pk.id, pk.shares, pk.net)
	}
}
