package serve

import (
	"regexp"
	"strconv"
	"sync/atomic"
	"testing"

	"autoview/internal/obs"
)

// TestOpMemoRacesReload sends novel estimates while hot-reloads swap the
// model underneath. Each body is one workload query eight times over,
// every `<` bound of each copy redrawn from a counter: texts no cache
// has seen, whose plans are encoded afresh, and whose operators share
// every prefix but the last constant — what the f32 mirror's LSTM1 memo
// resumes from. A reload drops the mirror and its memo with the old
// weights. Every reply must be what the model its model_version names
// answers (checkReplies: a per-pair Predict on that checkpoint loaded
// into a model of its own), and the memo must have resumed operators.
func TestOpMemoRacesReload(t *testing.T) {
	s, ts := newTestServer(t, 2, Config{})
	var vs ViewSet
	getJSON(t, ts.URL+"/v1/views", &vs)
	if len(vs.Views) == 0 {
		t.Fatal("no bootstrap views to pair with")
	}
	boot := s.gen.Load()
	ckpts, oracles := twoCheckpoints(t, s)

	bound := regexp.MustCompile(`< \d+`)
	var bases []string
	for _, q := range serveWK().Queries {
		if bound.MatchString(q.SQL) {
			bases = append(bases, q.SQL)
		}
	}
	if len(bases) == 0 {
		t.Fatal("no workload query has a `<` bound to redraw")
	}
	const readers, rounds, perBody = 3, 6, 8
	var lit atomic.Int64
	lit.Store(100000)
	resumed := obs.Default.Counter("wd.infer.ops.resumed", "")
	before := resumed.Value()
	replies, served := raceReloads(t, ts.URL, ckpts, readers, rounds, func(r, k int) [][]estimatePair {
		base := bases[(r*rounds+k)%len(bases)]
		pairs := make([]estimatePair, perBody)
		for i := range pairs {
			q := bound.ReplaceAllStringFunc(base, func(string) string {
				return "< " + strconv.FormatInt(lit.Add(1), 10)
			})
			pairs[i] = estimatePair{Query: q, View: vs.Views[i%len(vs.Views)].SQL}
		}
		return [][]estimatePair{pairs}
	})
	checkReplies(t, s, boot, served, oracles, replies)
	if resumed.Value() == before {
		t.Fatal("no operator resumed from a memoized LSTM1 prefix")
	}
}
