package workload

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"autoview/internal/plan"
	"autoview/internal/sqlparse"
)

// planPrints renders every query of w as its ID, project, the Exact
// fingerprint of its SQL, and the exact fingerprint and text of its plan.
func planPrints(t *testing.T, w *Workload) []string {
	t.Helper()
	out := make([]string, len(w.Queries))
	for i, q := range w.Queries {
		fp, err := sqlparse.Fingerprint(q.SQL)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		out[i] = fmt.Sprintf("%s %s %x %s\n%s", q.ID, q.Project, fp.Exact, plan.FingerprintOf(q.Plan), q.Plan)
	}
	return out
}

// TestGeneratorsParseIndependentOfGOMAXPROCS: the generators draw every
// text first and parse them across GOMAXPROCS workers, so each query's
// text and plan are the same whether one worker parses them or eight.
func TestGeneratorsParseIndependentOfGOMAXPROCS(t *testing.T) {
	loadJOB := func() *Workload {
		job := JOB()
		var sql strings.Builder
		for _, q := range job.Queries {
			sql.WriteString(q.SQL + ";\n")
		}
		w, err := LoadQueries(strings.NewReader(sql.String()), job.Cat, "custom")
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, g := range []struct {
		name string
		gen  func() *Workload
	}{{"JOB", JOB}, {"WK1", WK1}, {"WK2", WK2}, {"LoadQueries", loadJOB}} {
		name, gen := g.name, g.gen
		runtime.GOMAXPROCS(1)
		serial := planPrints(t, gen())
		runtime.GOMAXPROCS(8)
		parallel := planPrints(t, gen())
		if len(serial) != len(parallel) {
			t.Fatalf("%s: %d queries at GOMAXPROCS 1, %d at 8", name, len(serial), len(parallel))
		}
		for i := range serial {
			if serial[i] != parallel[i] {
				t.Errorf("%s: query %d differs:\nGOMAXPROCS 1: %s\nGOMAXPROCS 8: %s", name, i, serial[i], parallel[i])
				break
			}
		}
	}
}

// TestLoadQueriesReportsFirstBadQuery: with several queries failing to
// parse, the error names the first of them in file order, however the
// parse is spread over workers.
func TestLoadQueriesReportsFirstBadQuery(t *testing.T) {
	cat, err := LoadCatalog(strings.NewReader(sampleSchema))
	if err != nil {
		t.Fatal(err)
	}
	good := "select region, count(*) as n from sales group by region;\n"
	src := strings.Repeat(good, 40) + "select nope from sales;\n" + strings.Repeat(good, 40) + "select broken from;\n"
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	_, err = LoadQueries(strings.NewReader(src), cat, "x")
	if err == nil || !strings.Contains(err.Error(), "query x-q040:") {
		t.Errorf("error %v, want it to name x-q040", err)
	}
}
