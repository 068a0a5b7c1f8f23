package workload

import (
	"fmt"

	"autoview/internal/catalog"
)

// imdbTable describes one scaled-down IMDB relation.
type imdbTable struct {
	name string
	rows int
	cols []catalog.Column
}

// imdbSchema lists the 21 IMDB relations of the Join Order Benchmark with
// row counts scaled to laptop size (ratios roughly preserved: cast_info is
// the largest fact table, type dimensions are tiny).
func imdbSchema() []imdbTable {
	ic := func(name string, distinct int) catalog.Column {
		return catalog.Column{Name: name, Type: catalog.TypeInt, Distinct: distinct}
	}
	sc := func(name string, distinct int) catalog.Column {
		return catalog.Column{Name: name, Type: catalog.TypeString, Distinct: distinct}
	}
	return []imdbTable{
		{"title", 4000, []catalog.Column{ic("id", 4000), ic("kind_id", 7), ic("production_year", 100), sc("phonetic_code", 300)}},
		{"name", 3000, []catalog.Column{ic("id", 3000), sc("gender", 3), sc("name_pcode", 200)}},
		{"cast_info", 12000, []catalog.Column{ic("id", 12000), ic("movie_id", 4000), ic("person_id", 3000), ic("role_id", 12), ic("nr_order", 20)}},
		{"movie_companies", 6000, []catalog.Column{ic("id", 6000), ic("movie_id", 4000), ic("company_id", 500), ic("company_type_id", 4), ic("note_ind", 3)}},
		{"movie_info", 8000, []catalog.Column{ic("id", 8000), ic("movie_id", 4000), ic("info_type_id", 40), sc("info_val", 500)}},
		{"movie_info_idx", 4000, []catalog.Column{ic("id", 4000), ic("movie_id", 4000), ic("info_type_id", 40), sc("info_val", 300)}},
		{"movie_keyword", 6000, []catalog.Column{ic("id", 6000), ic("movie_id", 4000), ic("keyword_id", 800)}},
		{"keyword", 800, []catalog.Column{ic("id", 800), sc("phonetic_code", 100)}},
		{"company_name", 500, []catalog.Column{ic("id", 500), sc("country_code", 40)}},
		{"company_type", 4, []catalog.Column{ic("id", 4), sc("kind", 4)}},
		{"info_type", 40, []catalog.Column{ic("id", 40), sc("info", 40)}},
		{"kind_type", 7, []catalog.Column{ic("id", 7), sc("kind", 7)}},
		{"role_type", 12, []catalog.Column{ic("id", 12), sc("role", 12)}},
		{"char_name", 2000, []catalog.Column{ic("id", 2000), sc("name_pcode", 150)}},
		{"aka_name", 1500, []catalog.Column{ic("id", 1500), ic("person_id", 3000)}},
		{"aka_title", 1200, []catalog.Column{ic("id", 1200), ic("movie_id", 4000), ic("kind_id", 7)}},
		{"comp_cast_type", 4, []catalog.Column{ic("id", 4), sc("kind", 4)}},
		{"complete_cast", 1000, []catalog.Column{ic("id", 1000), ic("movie_id", 4000), ic("subject_id", 4), ic("status_id", 4)}},
		{"movie_link", 800, []catalog.Column{ic("id", 800), ic("movie_id", 4000), ic("linked_movie_id", 4000), ic("link_type_id", 18)}},
		{"link_type", 18, []catalog.Column{ic("id", 18), sc("link", 18)}},
		{"person_info", 3000, []catalog.Column{ic("id", 3000), ic("person_id", 3000), ic("info_type_id", 40)}},
	}
}

// jobFragment is one shared subquery of the candidate pool: a filtered
// projection of a fact table exposing a join key and one attribute.
type jobFragment struct {
	table string
	key   string // join key column
	attr  string
	pred  string // SQL predicate
	// partner is "title" for movie_id keys, "name" for person_id keys.
	partner string
}

// jobFragments builds the pool of 28 shared subqueries. Several fragments
// share a table (differing only in predicates), which makes them
// overlapping candidates per Definition 5 — the source of Table I's
// "# overlapping pairs".
func jobFragments() []jobFragment {
	var out []jobFragment
	add := func(table, key, attr, pred, partner string) {
		out = append(out, jobFragment{table: table, key: key, attr: attr, pred: pred, partner: partner})
	}
	for i := 0; i < 4; i++ { // movie_companies ×4
		add("movie_companies", "movie_id", "company_id",
			fmt.Sprintf("company_type_id = %d", i%4), "title")
	}
	for i := 0; i < 4; i++ { // movie_info ×4
		add("movie_info", "movie_id", "info_val",
			fmt.Sprintf("info_type_id = %d", 3*i), "title")
	}
	for i := 0; i < 3; i++ { // movie_keyword ×3
		add("movie_keyword", "movie_id", "keyword_id",
			fmt.Sprintf("keyword_id < %d", 100*(i+1)), "title")
	}
	for i := 0; i < 5; i++ { // cast_info ×5
		add("cast_info", "movie_id", "person_id",
			fmt.Sprintf("role_id = %d and nr_order < %d", i*2, 5+3*i), "title")
	}
	for i := 0; i < 4; i++ { // title ×4 (keyed by id, partnered by facts)
		add("title", "id", "production_year",
			fmt.Sprintf("kind_id = %d", i+1), "movie_companies")
	}
	for i := 0; i < 3; i++ { // movie_info_idx ×3
		add("movie_info_idx", "movie_id", "info_val",
			fmt.Sprintf("info_type_id = %d", 5+7*i), "title")
	}
	for i := 0; i < 2; i++ { // complete_cast ×2
		add("complete_cast", "movie_id", "status_id",
			fmt.Sprintf("subject_id = %d", i+1), "title")
	}
	for i := 0; i < 2; i++ { // movie_link ×2
		add("movie_link", "movie_id", "linked_movie_id",
			fmt.Sprintf("link_type_id = %d", 4*i+1), "title")
	}
	add("person_info", "person_id", "info_type_id", "info_type_id < 12", "name") // ×1
	return out
}

// jobWeakFragments builds marginal candidates: wide projections with
// weakly selective predicates. Their views are almost as expensive to
// scan as recomputing the subquery, so materializing them only pays off
// with heavy sharing — these are the candidates that bend Figure 9's
// curves downward past the optimum k.
func jobWeakFragments() []jobFragment {
	var out []jobFragment
	add := func(table, key, attrs, pred string) {
		out = append(out, jobFragment{table: table, key: key, attr: attrs, pred: pred, partner: "title"})
	}
	for i := 0; i < 7; i++ {
		add("cast_info", "movie_id", "id, person_id, role_id, nr_order",
			fmt.Sprintf("nr_order <> %d", i))
	}
	for i := 0; i < 7; i++ {
		add("movie_info", "movie_id", "id, info_type_id, info_val",
			fmt.Sprintf("info_type_id <> %d", i))
	}
	for i := 0; i < 6; i++ {
		add("movie_companies", "movie_id", "id, company_id, company_type_id, note_ind",
			fmt.Sprintf("company_id >= %d", 20+5*i))
	}
	return out
}

// fragmentSQL renders a fragment as a derived-table body.
func (f jobFragment) fragmentSQL() string {
	return fmt.Sprintf("select %s, %s from %s where %s", f.key, f.attr, f.table, f.pred)
}

// partnerSQL renders the per-template partner branch; mutate shifts its
// predicate constants (the paper's "manually modifying the predicates").
// Constants are derived injectively from u = 2·tmpl + mutate so no two
// queries accidentally share a partner subquery: sharing comes only from
// the fragment pool, as in the paper's construction.
func partnerSQL(f jobFragment, tmpl int, mutate bool) (sql, joinKey string) {
	u := 2 * tmpl
	if mutate {
		u++
	}
	switch f.partner {
	case "title":
		// (year, kind) enumerates 100×7 = 700 combos; u < 226 stays
		// injective.
		year := u % 100
		kind := (u / 100) % 7
		return fmt.Sprintf("select id, phonetic_code from title where production_year = %d and kind_id = %d", year, kind), "id"
	case "name":
		g := []string{"'v0'", "'v1'", "'v2'"}[u%3]
		pcode := fmt.Sprintf("'v%d'", u%200)
		return fmt.Sprintf("select id, name_pcode from name where gender = %s and name_pcode = %s", g, pcode), "id"
	default: // a fact partner for title-keyed fragments
		ct := u % 4
		bound := 100 + u // unique range predicate per query
		return fmt.Sprintf("select movie_id, company_id from movie_companies where company_type_id = %d and company_id < %d", ct, bound), "movie_id"
	}
}

// JOB generates the JOB-like workload: the IMDB schema, 113 query
// templates cycling through the 28-fragment pool, each doubled by a
// predicate-mutated twin (226 queries total, as in Table I's first row).
func JOB() *Workload {
	cat := catalog.New()
	for _, t := range imdbSchema() {
		err := cat.Add(&catalog.Table{
			Name:    t.name,
			Project: "job",
			Columns: t.cols,
			Stats:   catalog.TableStats{Rows: t.rows},
		})
		if err != nil {
			panic("workload: imdb schema: " + err.Error())
		}
	}
	frags := jobFragments()
	weak := jobWeakFragments()
	w := &Workload{Name: "JOB", Cat: cat, DataSeed: 1234}
	// Template allocation (113 templates, each doubled by a mutated
	// twin → 226 queries):
	//
	//   0..71   strong pool (28 fragments, ≈2.6 templates each);
	//   72..92  shared-join groups: 7 groups × 3 templates sharing both
	//           the fragment AND the partner branch but differing in
	//           aggregates — their whole join subquery clusters, and the
	//           join candidate overlaps the fragment candidate exactly
	//           like s3 ⊃ s1 in the paper's Figure 2;
	//   93..112 weak pool (20 marginal fragments, one template each).
	const (
		templates     = 113
		strongEnd     = 72
		joinGroupEnd  = 93
		joinGroupSize = 3
	)
	aggVariants := []string{
		"count(*) as cnt",
		"count(*) as cnt, max(t2.%s) as mx",
		"count(*) as cnt, min(t2.%s) as mn",
	}
	for tmpl := 0; tmpl < templates; tmpl++ {
		var f jobFragment
		partnerSeed := tmpl
		aggVariant := 0
		switch {
		case tmpl < strongEnd:
			f = frags[tmpl%len(frags)]
			if tmpl%3 == 1 {
				aggVariant = 1
			}
		case tmpl < joinGroupEnd:
			group := (tmpl - strongEnd) / joinGroupSize
			// Spread groups across the strong pool so join
			// candidates overlap fragments that other queries also
			// share.
			f = frags[(group*4)%len(frags)]
			partnerSeed = 500 + group // fixed per group → shared joins
			aggVariant = (tmpl - strongEnd) % joinGroupSize
		default:
			f = weak[(tmpl-joinGroupEnd)%len(weak)]
		}
		for _, mutate := range []bool{false, true} {
			partner, pk := partnerSQL(f, partnerSeed, mutate)
			agg := aggVariants[aggVariant]
			if aggVariant > 0 {
				agg = fmt.Sprintf(agg, partnerAttr(f.partner))
			}
			sql := fmt.Sprintf(
				"select t1.%s, %s from ( %s ) t1 inner join ( %s ) t2 on t1.%s = t2.%s group by t1.%s",
				f.key, agg, f.fragmentSQL(), partner, f.key, pk, f.key)
			id := fmt.Sprintf("job-%03d", tmpl)
			if mutate {
				id += "m"
			}
			w.Queries = append(w.Queries, Query{ID: id, Project: "job", SQL: sql})
		}
	}
	mustParse(w)
	return w
}

func partnerAttr(partner string) string {
	switch partner {
	case "title":
		return "phonetic_code"
	case "name":
		return "name_pcode"
	default:
		return "company_id"
	}
}
