// Command workloadgen emits the built-in benchmark workloads: their
// Table I statistics, the Figure 1 redundancy analysis, and optionally the
// SQL text of every query.
//
// Usage:
//
//	workloadgen [-workload job|wk1|wk2] [-sql] [-redundancy]
//	            [-stats] [-obs-addr host:port] [-log-level debug|info|warn|error]
//
// The observability flags are shared with viewgen and documented in
// OBSERVABILITY.md; -stats prints the parse/preprocess metrics after the
// run.
package main

import (
	"flag"
	"fmt"
	"os"

	"autoview/internal/equiv"
	"autoview/internal/obs"
	"autoview/internal/workload"
)

func main() {
	wl := flag.String("workload", "job", "workload: job, wk1, wk2")
	dumpSQL := flag.Bool("sql", false, "print every query's SQL")
	redundancy := flag.Bool("redundancy", false, "print the per-project redundancy analysis (Figure 1)")
	var obsFlags obs.Flags
	obsFlags.Register(flag.CommandLine)
	flag.Parse()

	if err := obsFlags.Start(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "workloadgen:", err)
		os.Exit(1)
	}

	w, err := workload.Open(*wl, "", "")
	if err != nil {
		fmt.Fprintln(os.Stderr, "workloadgen:", err)
		os.Exit(1)
	}

	pre := equiv.Preprocess(w.Plans(), nil)
	stats := w.Describe(pre)
	fmt.Printf("%s\n", w.Name)
	fmt.Printf("  # project / # table:    %d / %d\n", stats.Projects, stats.Tables)
	fmt.Printf("  # query / # subquery:   %d / %d\n", stats.Queries, stats.Subqueries)
	fmt.Printf("  # equivalent pairs:     %d\n", stats.EquivalentPairs)
	fmt.Printf("  # candidate (|Z|):      %d\n", stats.Candidates)
	fmt.Printf("  # associated (|Q|):     %d\n", stats.AssociatedQuery)
	fmt.Printf("  # overlapping pairs:    %d\n", stats.OverlappingPairs)

	if *redundancy {
		fmt.Println("per-project redundancy:")
		rows := w.Redundancy(pre)
		for _, r := range rows {
			fmt.Printf("  %-8s total=%-5d redundant=%-5d\n", r.Project, r.Total, r.Redundant)
		}
		fmt.Print("cumulative redundancy %: ")
		for _, v := range workload.CumulativeRedundancy(rows) {
			fmt.Printf("%.1f ", v)
		}
		fmt.Println()
	}

	if *dumpSQL {
		for _, q := range w.Queries {
			fmt.Printf("-- %s (%s)\n%s;\n", q.ID, q.Project, q.SQL)
		}
	}

	obsFlags.Report(os.Stdout)
}
