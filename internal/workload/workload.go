// Package workload generates the benchmark workloads of Section VI at
// laptop scale: a JOB-like workload over the IMDB schema (21 relations,
// 113 query templates doubled to 226 by predicate mutation) and two
// WK-style multi-project cloud workloads whose sharing, overlap and skew
// characteristics follow Table I's shape. All generation is deterministic
// given a seed.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"

	"autoview/internal/catalog"
	"autoview/internal/equiv"
	"autoview/internal/nn"
	"autoview/internal/obs"
	"autoview/internal/plan"
	"autoview/internal/storage"
)

// Query is one workload member.
type Query struct {
	ID      string
	Project string
	SQL     string
	Plan    *plan.Node
}

// Workload bundles a catalog with its query set.
type Workload struct {
	Name     string
	Cat      *catalog.Catalog
	Queries  []Query
	DataSeed int64
}

// Plans returns the query plans in workload order.
func (w *Workload) Plans() []*plan.Node {
	out := make([]*plan.Node, len(w.Queries))
	for i, q := range w.Queries {
		out[i] = q.Plan
	}
	return out
}

// Populate generates table data for the workload's catalog.
func (w *Workload) Populate() *storage.Store {
	return storage.Populate(w.Cat, rand.New(rand.NewSource(w.DataSeed)))
}

// Stats summarizes a workload in Table I's terms.
type Stats struct {
	Projects         int
	Tables           int
	Queries          int
	Subqueries       int
	EquivalentPairs  int
	Candidates       int // |Z|
	AssociatedQuery  int // |Q|
	OverlappingPairs int
}

// Describe computes Table I's statistics from a pre-process result.
func (w *Workload) Describe(pre *equiv.Result) Stats {
	subq := 0
	for _, subs := range pre.Subqueries {
		subq += len(subs)
	}
	return Stats{
		Projects:         len(w.Cat.Projects()),
		Tables:           w.Cat.Len(),
		Queries:          len(w.Queries),
		Subqueries:       subq,
		EquivalentPairs:  pre.EquivalentPairs,
		Candidates:       len(pre.Candidates),
		AssociatedQuery:  len(pre.AssociatedQueries),
		OverlappingPairs: pre.OverlappingPairs(),
	}
}

// ProjectRedundancy is one bar of Figure 1(a): per project, the number of
// queries and the number whose computation is shared with another query.
type ProjectRedundancy struct {
	Project   string
	Total     int
	Redundant int
}

// Redundancy computes Figure 1's analysis: a query is "redundant" when at
// least one of its subqueries belongs to a cluster shared by ≥2 queries.
func (w *Workload) Redundancy(pre *equiv.Result) []ProjectRedundancy {
	redundant := make(map[int]bool)
	for _, c := range pre.Clusters {
		if c.SharedBy() < 2 {
			continue
		}
		for _, qi := range c.Queries {
			redundant[qi] = true
		}
	}
	byProject := map[string]*ProjectRedundancy{}
	var order []string
	for i, q := range w.Queries {
		pr, ok := byProject[q.Project]
		if !ok {
			pr = &ProjectRedundancy{Project: q.Project}
			byProject[q.Project] = pr
			order = append(order, q.Project)
		}
		pr.Total++
		if redundant[i] {
			pr.Redundant++
		}
	}
	sort.Strings(order)
	out := make([]ProjectRedundancy, 0, len(order))
	for _, p := range order {
		out = append(out, *byProject[p])
	}
	return out
}

// CumulativeRedundancy computes Figure 1(b): with projects sorted by
// redundancy ratio descending, the cumulative percentage of redundant
// queries among total queries as more projects are included.
func CumulativeRedundancy(rows []ProjectRedundancy) []float64 {
	sorted := append([]ProjectRedundancy(nil), rows...)
	sort.Slice(sorted, func(a, b int) bool {
		ra := ratio(sorted[a])
		rb := ratio(sorted[b])
		if ra != rb { //lint:allow floateq sort comparator needs an exact total order
			return ra > rb
		}
		return sorted[a].Project < sorted[b].Project
	})
	var grandTotal int
	for _, r := range sorted {
		grandTotal += r.Total
	}
	out := make([]float64, len(sorted))
	cum := 0
	for i, r := range sorted {
		cum += r.Redundant
		if grandTotal > 0 {
			out[i] = 100 * float64(cum) / float64(grandTotal)
		}
	}
	return out
}

func ratio(r ProjectRedundancy) float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Redundant) / float64(r.Total)
}

// parse binds every query's SQL to its plan across GOMAXPROCS workers and
// returns the error of the first query, in workload order, that does not
// parse. The texts are drawn before, so the worker count changes no plan.
func parse(qs []Query, cat *catalog.Catalog) error {
	defer obs.StartSpan("workload.parse")()
	errs := make([]error, len(qs))
	nn.ParallelFor(len(qs), runtime.GOMAXPROCS(0), func(i int) {
		qs[i].Plan, errs[i] = plan.Parse(qs[i].SQL, cat)
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("query %s: %w", qs[i].ID, err)
		}
	}
	return nil
}

// mustParse parses a generated workload's queries or panics: generation
// bugs are programming errors, not runtime conditions.
func mustParse(w *Workload) {
	if err := parse(w.Queries, w.Cat); err != nil {
		panic("workload: " + err.Error())
	}
}

// zipfPick draws an index in [0, n) with a Zipf-like skew: higher s means
// heavier head. Deterministic given rng.
func zipfPick(rng *rand.Rand, n int, s float64) int {
	if n <= 1 {
		return 0
	}
	// Inverse-CDF over 1/(i+1)^s weights.
	var total float64
	weights := make([]float64, n)
	for i := 0; i < n; i++ {
		w := 1 / math.Pow(float64(i+1), s)
		weights[i] = w
		total += w
	}
	r := rng.Float64() * total
	for i, w := range weights {
		r -= w
		if r <= 0 {
			return i
		}
	}
	return n - 1
}
