package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"autoview/internal/catalog"
)

// WKParams parameterizes the synthetic multi-project cloud workloads that
// stand in for the paper's Ant-Financial workloads WK1 and WK2. The
// defaults in WK1()/WK2() scale Table I's shapes down ~60-150× while
// preserving the relationships the experiments depend on: WK1 has more
// skewed benefit/overhead distributions, WK2 has more (and more complex)
// queries and a larger candidate set.
type WKParams struct {
	Name             string
	Projects         int
	FactsPerProject  int
	DimsPerProject   int
	Queries          int
	FragsPerProject  int
	Skew             float64 // Zipf skew of fragment reuse (higher = more skewed)
	ThreeWayFraction float64 // fraction of queries with a second join
	RowSkew          float64 // fact-table row-count spread (higher = more skewed)
	// UniqueFraction of queries use an ad-hoc (unshared) subquery
	// instead of a pooled fragment; these queries carry no redundant
	// computation, as most queries in the paper's Figure 1 workloads.
	UniqueFraction float64
	Seed           int64
}

// WK1 resembles the paper's first Ant-Financial workload: 21 projects,
// skewed sharing and skewed table sizes.
func WK1() *Workload {
	return WK(WKParams{
		Name:             "WK1",
		Projects:         21,
		FactsPerProject:  2,
		DimsPerProject:   1,
		Queries:          600,
		FragsPerProject:  3,
		Skew:             1.4,
		ThreeWayFraction: 0.15,
		RowSkew:          2.5,
		UniqueFraction:   0.45,
		Seed:             42,
	})
}

// WK2 resembles the second workload: more projects, more and more complex
// queries, a larger candidate set, and milder skew.
func WK2() *Workload {
	return WK(WKParams{
		Name:             "WK2",
		Projects:         25,
		FactsPerProject:  2,
		DimsPerProject:   1,
		Queries:          1000,
		FragsPerProject:  4,
		Skew:             0.7,
		ThreeWayFraction: 0.45,
		RowSkew:          1.2,
		UniqueFraction:   0.35,
		Seed:             43,
	})
}

// wkFragment is one shared subquery in a project's pool.
type wkFragment struct {
	project string
	sql     string
	key     string
	dim     string // partner dimension table
}

// WK generates a synthetic multi-project workload.
func WK(p WKParams) *Workload {
	rng := rand.New(rand.NewSource(p.Seed))
	cat := catalog.New()
	var frags []wkFragment
	fragsByProject := make(map[string][]int)
	// stdPartners holds two fixed partner branches per project; queries
	// occasionally reuse them so whole join subqueries cluster across
	// queries, creating join candidates that overlap their fragment
	// candidates (the paper's # overlapping pairs).
	stdPartners := make(map[string][]string)
	var projects []string

	for pi := 0; pi < p.Projects; pi++ {
		project := fmt.Sprintf("p%02d", pi+1)
		projects = append(projects, project)
		var dims []string
		for di := 0; di < p.DimsPerProject; di++ {
			dim := fmt.Sprintf("%s_dim%d", project, di+1)
			dims = append(dims, dim)
			mustAdd(cat, &catalog.Table{
				Name:    dim,
				Project: project,
				Columns: []catalog.Column{
					{Name: "id", Type: catalog.TypeInt, Distinct: 300},
					{Name: "attr", Type: catalog.TypeString, Distinct: 20},
					{Name: "grp", Type: catalog.TypeInt, Distinct: 8},
				},
				Stats: catalog.TableStats{Rows: 200 + rng.Intn(200)},
			})
		}
		for i := 0; i < 2; i++ {
			stdPartners[project] = append(stdPartners[project],
				fmt.Sprintf("select id, attr, grp from %s where grp = %d", dims[0], rng.Intn(8)))
		}
		for fi := 0; fi < p.FactsPerProject; fi++ {
			fact := fmt.Sprintf("%s_fact%d", project, fi+1)
			// Row counts spread by RowSkew: a few huge facts dominate
			// overheads in skewed workloads.
			base := 1500
			rows := base + int(float64(rng.Intn(base))*p.RowSkew*rng.Float64()*2)
			mustAdd(cat, &catalog.Table{
				Name:    fact,
				Project: project,
				Columns: []catalog.Column{
					{Name: "id", Type: catalog.TypeInt, Distinct: rows},
					{Name: "key", Type: catalog.TypeInt, Distinct: 300},
					{Name: "cat", Type: catalog.TypeInt, Distinct: 6},
					{Name: "status", Type: catalog.TypeInt, Distinct: 4},
					{Name: "val", Type: catalog.TypeFloat, Distinct: 1000},
					{Name: "dt", Type: catalog.TypeString, Distinct: 8},
				},
				Stats: catalog.TableStats{Rows: rows},
			})
			// Fragments over this fact table.
			perFact := p.FragsPerProject / p.FactsPerProject
			if fi < p.FragsPerProject%p.FactsPerProject {
				perFact++
			}
			for k := 0; k < perFact; k++ {
				pred := fmt.Sprintf("cat = %d and dt = 'v%d'", rng.Intn(6), rng.Intn(8))
				if k%2 == 1 {
					pred = fmt.Sprintf("status = %d and dt = 'v%d'", rng.Intn(4), rng.Intn(8))
				}
				frag := wkFragment{
					project: project,
					sql:     fmt.Sprintf("select key, val from %s where %s", fact, pred),
					key:     "key",
					dim:     dims[k%len(dims)],
				}
				fragsByProject[project] = append(fragsByProject[project], len(frags))
				frags = append(frags, frag)
			}
			// One weak fragment per fact: a wide, weakly selective
			// projection whose view is nearly as expensive to scan
			// as recomputing it (marginal utility; see Figure 9).
			weak := wkFragment{
				project: project,
				sql: fmt.Sprintf("select id, key, cat, status, val, dt from %s where dt <> 'v%d'",
					fact, rng.Intn(8)),
				key: "key",
				dim: dims[0],
			}
			fragsByProject[project] = append(fragsByProject[project], len(frags))
			frags = append(frags, weak)
		}
	}

	w := &Workload{Name: p.Name, Cat: cat, DataSeed: p.Seed * 7}
	for qi := 0; qi < p.Queries; qi++ {
		project := projects[rng.Intn(len(projects))]
		pool := fragsByProject[project]
		f := frags[pool[zipfPick(rng, len(pool), p.Skew)]]
		if rng.Float64() < p.UniqueFraction {
			// Ad-hoc unshared subquery: the val bound is unique per
			// query, so it never clusters with anything.
			f = wkFragment{
				project: project,
				sql:     fmt.Sprintf("%s and val < %d.25", f.sql, 200+qi),
				key:     f.key,
				dim:     f.dim,
			}
		}
		// Partner branch: usually a per-query filtered dimension (two
		// predicates over a grp×attr domain keep accidental cross-query
		// collisions rare); occasionally one of the project's standard
		// partners, so the whole join subquery is shared.
		partner := fmt.Sprintf("select id, attr, grp from %s where grp = %d and attr = 'v%d' and id < %d",
			f.dim, rng.Intn(8), rng.Intn(20), 100+rng.Intn(200))
		if rng.Float64() < 0.25 {
			partner = stdPartners[project][rng.Intn(2)]
		}
		agg := "count(*) as cnt, sum(t1.val) as total"
		sql := fmt.Sprintf(
			"select t2.attr, %s from ( %s ) t1 inner join ( %s ) t2 on t1.%s = t2.id",
			agg, f.sql, partner, f.key)
		if rng.Float64() < p.ThreeWayFraction {
			// A second shared fragment joins in (three-way join):
			// queries get deeper plans and more subqueries each.
			g := frags[pool[zipfPick(rng, len(pool), p.Skew)]]
			sql = fmt.Sprintf(
				"select t2.attr, %s from ( %s ) t1 inner join ( %s ) t2 on t1.%s = t2.id inner join ( %s ) t3 on t1.%s = t3.%s",
				agg, f.sql, partner, f.key, g.sql, f.key, g.key)
		}
		sql += " group by t2.attr"
		w.Queries = append(w.Queries, Query{
			ID:      fmt.Sprintf("%s-q%04d", p.Name, qi),
			Project: project,
			SQL:     sql,
		})
	}
	mustParse(w)
	return w
}

func mustAdd(cat *catalog.Catalog, t *catalog.Table) {
	if err := cat.Add(t); err != nil {
		panic("workload: " + err.Error())
	}
}

// TopProjects returns the k projects with the most queries, largest first
// (ties broken by name).
func (w *Workload) TopProjects(k int) []string {
	counts := map[string]int{}
	for _, q := range w.Queries {
		counts[q.Project]++
	}
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Slice(names, func(a, b int) bool {
		if counts[names[a]] != counts[names[b]] {
			return counts[names[a]] > counts[names[b]]
		}
		return names[a] < names[b]
	})
	if k > len(names) {
		k = len(names)
	}
	return names[:k]
}

// ProjectUnion extracts the sub-workload of several projects. The catalog
// is shared.
func (w *Workload) ProjectUnion(names []string) *Workload {
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	sub := &Workload{Name: w.Name + "/sample", Cat: w.Cat, DataSeed: w.DataSeed}
	for _, q := range w.Queries {
		if set[q.Project] {
			sub.Queries = append(sub.Queries, q)
		}
	}
	return sub
}
