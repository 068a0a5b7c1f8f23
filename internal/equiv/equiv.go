// Package equiv implements the paper's pre-process stage (Fig. 3):
// subquery extraction, equivalence detection, and subquery clustering.
//
// The paper detects equivalent subqueries with EQUITAS, an SMT-based
// checker. We substitute canonical-form equality on normalized plans
// (plan.Normalize + plan.FingerprintOf): aliases are ignored, conjunct and
// disjunct order is ignored, symmetric comparisons are ordered, inner joins
// are commuted, adjacent filters/projects are collapsed. On the query
// fragment our generators emit this test is sound (no false positives),
// which is what clustering requires; it is incomplete relative to a full
// SMT check, which only means some clusters may be split — never merged
// incorrectly.
package equiv

import (
	"sort"

	"autoview/internal/nn"
	"autoview/internal/obs"
	"autoview/internal/plan"
)

// Pre-process stage metrics (see OBSERVABILITY.md). The sub-stage spans
// preprocess.decompose / preprocess.equiv_merge / preprocess.candidates /
// preprocess.overlap time the four phases of Preprocess.
var (
	obsSubqueries = obs.Default.Counter("preprocess.subqueries", "subqueries extracted across workloads")
	obsClusters   = obs.Default.Gauge("preprocess.clusters", "equivalence clusters in the last pre-process run")
	obsCandidates = obs.Default.Gauge("preprocess.candidates", "candidate views |Z| in the last pre-process run")
)

// Occurrence locates one subquery inside one workload query.
type Occurrence struct {
	Query    int // index into the workload's query list
	Subquery plan.Subquery
}

// Cluster is one equivalence class of subqueries across the workload.
type Cluster struct {
	ID          int
	Fingerprint plan.Fingerprint // normalized fingerprint
	Members     []Occurrence
	// Queries is the sorted set of distinct query indices sharing the
	// cluster.
	Queries []int
}

// SharedBy returns how many distinct queries contain a member.
func (c *Cluster) SharedBy() int { return len(c.Queries) }

// Pairs returns the number of equivalent subquery pairs contributed by the
// cluster: m·(m−1)/2 for m members.
func (c *Cluster) Pairs() int {
	m := len(c.Members)
	return m * (m - 1) / 2
}

// Candidate is the representative subquery chosen for a cluster: the
// member with the least overhead (Section III: "for each cluster, we
// select the subquery with the least overhead as the candidate subquery").
type Candidate struct {
	Cluster     *Cluster
	Plan        *plan.Node // normalized representative plan
	Fingerprint plan.Fingerprint
	// Queries are the workload query indices that can use a view built
	// on this candidate.
	Queries []int
	// Frequency is the total number of member occurrences across the
	// workload (TopkFreq's ranking signal).
	Frequency int
}

// Result is the output of the pre-process stage.
type Result struct {
	// Subqueries holds the extracted subqueries per query.
	Subqueries [][]plan.Subquery
	// Clusters holds all equivalence classes (singletons included).
	Clusters []*Cluster
	// Candidates holds representatives of clusters shared by at least
	// MinShare queries, ordered by cluster ID. This is the paper's Z.
	Candidates []*Candidate
	// Overlap[j][k] is the x_jk constant of the ILP: candidates j and k
	// are overlapping subqueries (Definition 5).
	Overlap [][]bool
	// EquivalentPairs is Table I's "# equivalent pairs".
	EquivalentPairs int
	// AssociatedQueries is the sorted set of query indices that can use
	// at least one candidate view: the paper's Q with |Q| = "#associated
	// query".
	AssociatedQueries []int
}

// OverlappingPairs counts candidate pairs marked overlapping (Table I's
// "# overlapping pairs").
func (r *Result) OverlappingPairs() int {
	n := 0
	for j := range r.Overlap {
		for k := j + 1; k < len(r.Overlap[j]); k++ {
			if r.Overlap[j][k] {
				n++
			}
		}
	}
	return n
}

// Options configures pre-processing.
type Options struct {
	// MinShare is the minimum number of distinct queries that must share
	// a cluster for it to yield a candidate. The default (2) reflects
	// the paper's goal of sharing computation *between* queries.
	MinShare int
	// CostOf ranks cluster members to pick the least-overhead
	// representative. When nil, members are ranked by operator count.
	CostOf func(*plan.Node) float64
	// Parallelism is the number of workers that extract and fingerprint
	// the queries' subqueries; 0 selects runtime.NumCPU(), 1 runs
	// serially. Clusters are assembled in query order after, so the
	// result is the same at every setting.
	Parallelism int
}

func (o *Options) minShare() int {
	if o == nil || o.MinShare <= 0 {
		return 2
	}
	return o.MinShare
}

func (o *Options) parallelism() int {
	if o == nil {
		return 0
	}
	return o.Parallelism
}

func (o *Options) costOf(n *plan.Node) float64 {
	if o == nil || o.CostOf == nil {
		return float64(n.Count())
	}
	return o.CostOf(n)
}

// Preprocess runs the full pre-process stage over a workload of query
// plans.
func Preprocess(queries []*plan.Node, opts *Options) *Result {
	res := &Result{Subqueries: make([][]plan.Subquery, len(queries))}

	// 1. Subquery extraction and fingerprinting, query by query across
	// the workers; the members then join their clusters in query order.
	stop := obs.StartSpan("preprocess.decompose")
	subFPs := make([][]plan.Fingerprint, len(queries))
	nn.ParallelFor(len(queries), opts.parallelism(), func(qi int) {
		subs := plan.ExtractSubqueries(queries[qi])
		res.Subqueries[qi] = subs
		subFPs[qi] = make([]plan.Fingerprint, len(subs))
		for k, s := range subs {
			subFPs[qi][k] = plan.NormalizedFingerprint(s.Root)
		}
	})
	byFP := make(map[plan.Fingerprint]*Cluster)
	nsub := 0
	for qi, subs := range res.Subqueries {
		nsub += len(subs)
		for k, s := range subs {
			nfp := subFPs[qi][k]
			c, ok := byFP[nfp]
			if !ok {
				c = &Cluster{Fingerprint: nfp}
				byFP[nfp] = c
			}
			c.Members = append(c.Members, Occurrence{Query: qi, Subquery: s})
		}
	}
	obsSubqueries.Add(int64(nsub))
	stop()

	// 2. Cluster assembly with deterministic IDs (sorted by fingerprint).
	stop = obs.StartSpan("preprocess.equiv_merge")
	res.Clusters = make([]*Cluster, 0, len(byFP))
	for _, c := range byFP {
		qset := make(map[int]bool)
		for _, m := range c.Members {
			qset[m.Query] = true
		}
		c.Queries = sortedKeys(qset)
		res.Clusters = append(res.Clusters, c)
	}
	sort.Slice(res.Clusters, func(i, j int) bool {
		return res.Clusters[i].Fingerprint < res.Clusters[j].Fingerprint
	})
	for i, c := range res.Clusters {
		c.ID = i
		res.EquivalentPairs += c.Pairs()
	}
	obsClusters.Set(float64(len(res.Clusters)))
	stop()

	// 3. Candidate selection: least-overhead member of each sufficiently
	// shared cluster.
	stop = obs.StartSpan("preprocess.candidates")
	minShare := opts.minShare()
	assoc := make(map[int]bool)
	for _, c := range res.Clusters {
		if c.SharedBy() < minShare {
			continue
		}
		best := c.Members[0].Subquery.Root
		bestCost := opts.costOf(best)
		for _, m := range c.Members[1:] {
			if cost := opts.costOf(m.Subquery.Root); cost < bestCost {
				best, bestCost = m.Subquery.Root, cost
			}
		}
		cand := &Candidate{
			Cluster:     c,
			Plan:        plan.Normalize(best),
			Fingerprint: c.Fingerprint,
			Queries:     c.Queries,
			Frequency:   len(c.Members),
		}
		res.Candidates = append(res.Candidates, cand)
		for _, qi := range c.Queries {
			assoc[qi] = true
		}
	}
	res.AssociatedQueries = sortedKeys(assoc)
	obsCandidates.Set(float64(len(res.Candidates)))
	stop()

	// 4. Overlap matrix over candidates (Definition 5).
	stop = obs.StartSpan("preprocess.overlap")
	defer stop()
	n := len(res.Candidates)
	res.Overlap = make([][]bool, n)
	fps := make([]map[plan.Fingerprint]bool, n)
	for j, cand := range res.Candidates {
		fps[j] = plan.SubtreeFingerprints(cand.Plan)
		res.Overlap[j] = make([]bool, n)
	}
	for j := 0; j < n; j++ {
		for k := j + 1; k < n; k++ {
			if intersects(fps[j], fps[k]) {
				res.Overlap[j][k] = true
				res.Overlap[k][j] = true
			}
		}
	}
	return res
}

func intersects(a, b map[plan.Fingerprint]bool) bool {
	if len(b) < len(a) {
		a, b = b, a
	}
	for fp := range a {
		if b[fp] {
			return true
		}
	}
	return false
}

func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
