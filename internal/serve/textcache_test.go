package serve

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"autoview/internal/sqlparse"
)

// textKey is the text-cache key of sql: the SHA-256 of its bytes.
func textKey(sql string) cacheKey { return cacheKey(sha256.Sum256([]byte(sql))) }

// textCached reports whether s's text cache holds sql, without setting
// its reference bit or counting a probe.
func textCached(s *Server, sql string) bool { return resident(s.textCache.fps, textKey(sql)) }

// lonelyTexts returns the texts with an admission slot in s that no
// other distinct text of texts uses: each is admitted on its second
// miss whatever order the texts are sent in.
func lonelyTexts(s *Server, texts []string) map[string]bool {
	users := map[*atomic.Uint64]map[string]bool{}
	for _, sql := range texts {
		k := textKey(sql)
		for _, slot := range []*atomic.Uint64{s.textCache.admits.slot(k), s.textCache.admits.altSlot(k)} {
			if users[slot] == nil {
				users[slot] = map[string]bool{}
			}
			users[slot][sql] = true
		}
	}
	lonely := map[string]bool{}
	for _, group := range users {
		if len(group) == 1 {
			for sql := range group {
				lonely[sql] = true
			}
		}
	}
	return lonely
}

// Two rewrites that change a statement's bytes but not its token
// stream, so not its exact fingerprint.
var sameTokens = []struct {
	name    string
	rewrite func(string) string
}{
	{"whitespace", func(sql string) string { return strings.ReplaceAll(sql, " ", " \n\t ") }},
	{"comments", func(sql string) string {
		return "-- leading comment\n" + strings.Replace(sql, " from ", " -- inner comment\nfrom ", 1) + " -- trailing comment"
	}},
}

// TestTextCacheByteIdentity: the text cache changes no reply byte. A
// server with every cache disabled and a cached one, bootstrapped
// alike, answer seeded /v1/estimate bodies byte for byte the same while
// the cached server's text cache is cold, after each text's first
// (deferred) miss, and warm; for whitespace and comment variants of the
// cached texts (new bytes, the same fingerprint); for bad SQL sent three
// times, which answers the parser's 400 each time because a failed
// fingerprint is never cached; and after a hot-reload and a forced
// advise, which leave the text cache as it was. Run with -race in CI.
func TestTextCacheByteIdentity(t *testing.T) {
	w := serveWK()
	_, coldTS := newTestServer(t, 2, Config{CacheSize: -1})
	cached, cachedTS := newTestServer(t, 2, Config{})
	var vsCold, vs ViewSet
	getJSON(t, coldTS.URL+"/v1/views", &vsCold)
	getJSON(t, cachedTS.URL+"/v1/views", &vs)
	vsCold.CreatedAt, vs.CreatedAt = time.Time{}, time.Time{}
	if !reflect.DeepEqual(vsCold, vs) {
		t.Fatalf("bootstrap view sets diverge:\ncold:   %+v\ncached: %+v", vsCold, vs)
	}
	if len(vs.Views) == 0 {
		t.Fatal("no bootstrap views to pair with")
	}

	// 24 distinct queries: the workload repeats some.
	var queries, texts []string
	seen := map[string]bool{}
	for _, q := range w.Queries {
		if !seen[q.SQL] && len(queries) < 24 {
			seen[q.SQL] = true
			queries = append(queries, q.SQL)
		}
	}
	texts = append(texts, queries...)
	for i := range queries {
		texts = append(texts, vs.Views[i%len(vs.Views)].SQL)
	}
	bodies := chunkBodies(t, queries, vs)
	coldReplies := func(bodies [][]byte) [][]byte {
		t.Helper()
		out := make([][]byte, len(bodies))
		for i, body := range bodies {
			var status int
			if status, out[i] = postRaw(t, coldTS.URL+"/v1/estimate", body); status != http.StatusOK {
				t.Fatalf("cold status %d: %s", status, out[i])
			}
		}
		return out
	}
	expect := func(phase string, bodies, want [][]byte) {
		t.Helper()
		for i, body := range bodies {
			status, got := postRaw(t, cachedTS.URL+"/v1/estimate", body)
			if status != http.StatusOK || !bytes.Equal(got, want[i]) {
				t.Fatalf("%s: body %d answers %d %s, the cache-disabled server %s", phase, i, status, got, want[i])
			}
		}
	}

	// Cold, after one deferred miss, warm. Each query text is sent once
	// a pass; the views repeat within one.
	want := coldReplies(bodies)
	expect("cold text cache", bodies, want)
	for _, q := range queries {
		if textCached(cached, q) {
			t.Fatalf("%q is cached after its first miss", q)
		}
	}
	expect("after one deferred miss", bodies, want)
	lonely := lonelyTexts(cached, texts)
	if len(lonely) < len(texts)/2 {
		t.Fatalf("only %d of %d texts own their admission slot", len(lonely), len(texts))
	}
	for _, q := range queries {
		if lonely[q] && !textCached(cached, q) {
			t.Fatalf("%q is not cached after its second miss", q)
		}
	}
	hits := obsTextCacheHit.Value()
	expect("warm text cache", bodies, want)
	if got := obsTextCacheHit.Value() - hits; got < int64(len(lonely)) {
		t.Fatalf("%d text-cache hits on the warm pass, want >= %d", got, len(lonely))
	}

	// New bytes, the same fingerprints: text-cache misses that answer
	// as the texts they rewrite.
	for _, rw := range sameTokens {
		var vq []string
		for _, q := range queries {
			v := rw.rewrite(q)
			a, errA := sqlparse.Fingerprint(q)
			b, errB := sqlparse.Fingerprint(v)
			if errA != nil || errB != nil || a != b {
				t.Fatalf("%s variant of %q fingerprints apart: %v %v", rw.name, q, errA, errB)
			}
			vq = append(vq, v)
		}
		vvs := ViewSet{Views: append([]ViewInfo(nil), vs.Views...)}
		for i := range vvs.Views {
			vvs.Views[i].SQL = rw.rewrite(vvs.Views[i].SQL)
		}
		vb := chunkBodies(t, vq, vvs)
		for _, pass := range []string{"cold", "deferred", "warm"} {
			expect(rw.name+" variants, "+pass, vb, want)
		}
	}

	// Bad SQL: a text the lexer rejects is never cached; one that lexes
	// but does not parse is, and still answers the parser's 400.
	const lexBad, parseBad = "select a from t where a = 'unterminated", "select a from"
	for _, bad := range []string{lexBad, parseBad} {
		body, err := json.Marshal(estimateRequest{Pairs: []estimatePair{
			{Query: queries[0], View: vs.Views[0].SQL}, {Query: bad, View: vs.Views[0].SQL}}})
		if err != nil {
			t.Fatal(err)
		}
		status, cold := postRaw(t, coldTS.URL+"/v1/estimate", body)
		if status != http.StatusBadRequest || !bytes.Contains(cold, []byte("bad_sql")) {
			t.Fatalf("%q: cold answers %d %s, want 400 bad_sql", bad, status, cold)
		}
		for k := 0; k < 3; k++ {
			if status, got := postRaw(t, cachedTS.URL+"/v1/estimate", body); status != http.StatusBadRequest || !bytes.Equal(got, cold) {
				t.Fatalf("%q, send %d: %d %s, want %s", bad, k+1, status, got, cold)
			}
		}
	}
	if textCached(cached, lexBad) {
		t.Fatal("a text the lexer rejects is in the text cache")
	}
	if !textCached(cached, parseBad) {
		t.Fatal("a text that lexes is not cached after its third miss")
	}

	// A hot-reload moves model_version and empties the estimate cache;
	// the text cache keeps every entry and keeps answering.
	size := cached.textCache.fps.len()
	cur := cached.gen.Load()
	path := t.TempDir() + "/wd.ckpt"
	if err := saveModel(cur.m, path); err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{coldTS.URL, cachedTS.URL} {
		if resp, body := postJSON(t, u+"/v1/admin/model", reloadRequest{Path: path, Scale: cur.scale * 2}); resp.StatusCode != http.StatusOK {
			t.Fatalf("reload on %s: status %d: %s", u, resp.StatusCode, body)
		}
	}
	if got := cached.textCache.fps.len(); got != size {
		t.Fatalf("text cache holds %d entries after a reload, %d before", got, size)
	}
	reloaded := coldReplies(bodies)
	if bytes.Equal(reloaded[0], want[0]) {
		t.Fatal("the reload left the reply unchanged")
	}
	hits = obsTextCacheHit.Value()
	expect("after a reload", bodies, reloaded)
	if obsTextCacheHit.Value() == hits {
		t.Fatal("no text-cache hit after a reload")
	}

	// A forced advise retrains and rotates; the texts stay cached.
	for _, u := range []string{coldTS.URL, cachedTS.URL} {
		if resp, body := postJSON(t, u+"/v1/advise", adviseRequest{Force: true}); resp.StatusCode != http.StatusOK {
			t.Fatalf("advise on %s: status %d: %s", u, resp.StatusCode, body)
		}
	}
	if got := cached.textCache.fps.len(); got != size {
		t.Fatalf("text cache holds %d entries after an advise, %d before", got, size)
	}
	expect("after a forced advise", bodies, coldReplies(bodies))
}

// TestTextCacheRacesReload: hot-text repeaters race novel-text senders
// while a writer hot-reloads two checkpoints in turn. Each novel text is
// a comment variant of a hot query whose admission slot is a hot
// query's, so the senders overwrite the repeaters' admission tags
// while the repeaters fill the text cache. Every reply must be the one
// the model its model_version names gives single-threaded, and every
// hot text no other text shares a slot with must end up cached.
func TestTextCacheRacesReload(t *testing.T) {
	s, ts := newTestServer(t, 2, Config{})
	w := serveWK()
	var vs ViewSet
	getJSON(t, ts.URL+"/v1/views", &vs)
	if len(vs.Views) == 0 {
		t.Fatal("no bootstrap views to pair with")
	}
	boot := s.gen.Load()
	ckpts, oracles := twoCheckpoints(t, s)

	const repeaters, senders, rounds, perBody = 2, 2, 8, 4
	pairsOf := func(qs []string) []estimatePair {
		out := make([]estimatePair, len(qs))
		for i, q := range qs {
			out[i] = estimatePair{Query: q, View: vs.Views[i%len(vs.Views)].SQL}
		}
		return out
	}
	// Two hot bodies. The senders contest the first one's slots only, so
	// the second's queries are admitted whatever the schedule.
	var hot [2][]string
	for i := range hot {
		for _, q := range w.Queries[i*perBody : (i+1)*perBody] {
			hot[i] = append(hot[i], q.SQL)
		}
	}
	slots := map[*atomic.Uint64]bool{}
	for _, q := range hot[0] {
		slots[s.textCache.admits.slot(textKey(q))] = true
	}
	// novel[r][k] is hot[0] with each query replaced by a comment
	// variant never sent before whose slot is one of hot[0]'s.
	var all []string
	n := 0
	novel := make([][][]string, senders)
	for r := range novel {
		for k := 0; k < rounds; k++ {
			var qs []string
			for _, q := range hot[0] {
				for {
					v := q + " -- " + strconv.Itoa(n)
					n++
					if slots[s.textCache.admits.slot(textKey(v))] {
						qs = append(qs, v)
						break
					}
				}
			}
			all = append(all, qs...)
			novel[r] = append(novel[r], qs)
		}
	}
	all = append(all, hot[0]...)
	all = append(all, hot[1]...)
	for _, v := range vs.Views {
		all = append(all, v.SQL)
	}

	hits := obsTextCacheHit.Value()
	replies, served := raceReloads(t, ts.URL, ckpts, repeaters+senders, rounds, func(r, k int) [][]estimatePair {
		if r < repeaters {
			return [][]estimatePair{pairsOf(hot[0]), pairsOf(hot[1])}
		}
		return [][]estimatePair{pairsOf(novel[r-repeaters][k])}
	})
	checkReplies(t, s, boot, served, oracles, replies)
	lonely := lonelyTexts(s, all)
	for _, q := range hot[1] {
		if lonely[q] && !textCached(s, q) {
			t.Fatalf("hot %q is not cached after %d sends", q, repeaters*rounds)
		}
	}
	if obsTextCacheHit.Value() == hits {
		t.Fatal("the repeaters never hit the text cache")
	}
}

// TestTextCacheAdmitsAlternatingSlotSharers: two texts whose digests
// share one admission slot (but not the other), sent in strict
// alternation 1,000 times each through Server.fingerprint, both end up
// in the text cache. In a one-slot table each miss would overwrite the
// other's tag, and neither would ever be admitted.
func TestTextCacheAdmitsAlternatingSlotSharers(t *testing.T) {
	s := &Server{textCache: newTextCache(4096)}
	at := &s.textCache.admits
	a := "select a from t where a = 1"
	ka := textKey(a)
	b := ""
	for n := 0; b == ""; n++ {
		v := a + " -- " + strconv.Itoa(n)
		if kv := textKey(v); at.slot(kv) == at.slot(ka) && at.altSlot(kv) != at.altSlot(ka) {
			b = v
		}
	}
	for k := 0; k < 1000; k++ {
		for _, sql := range []string{a, b} {
			if _, err := s.fingerprint([]byte(sql)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, sql := range []string{a, b} {
		if !textCached(s, sql) {
			t.Fatalf("%q is not cached after 1,000 sends alternating with a text sharing its slot", sql)
		}
	}
}

// FuzzTextCache: Server.fingerprint is sqlparse.FingerprintBytes, value
// and error text, on a text's first, second and third sight — a miss,
// a miss that admits it, and a hit — and after the caller reuses the
// buffer it passed. The cache is small, so the fuzzer's texts evict one
// another. Seeds: the wk1 statements, the parser's fuzz seeds (read
// from sqlparse's testdata, which its TestParseSeedsFile keeps
// current) and bytes that do not lex.
func FuzzTextCache(f *testing.F) {
	for _, q := range serveWK().Queries {
		f.Add([]byte(q.SQL))
	}
	seeds, err := os.Open("../sqlparse/testdata/parse_seeds.txt")
	if err != nil {
		f.Fatal(err)
	}
	defer seeds.Close()
	sc := bufio.NewScanner(seeds)
	for sc.Scan() {
		sql, err := strconv.Unquote(sc.Text())
		if err != nil {
			f.Fatalf("parse_seeds.txt: %v", err)
		}
		f.Add([]byte(sql))
	}
	if err := sc.Err(); err != nil {
		f.Fatal(err)
	}
	for _, bad := range []string{"\x00\xff\xfe", "select \x80 from t", "select a from t where a = 'x", "select a from t where a = 3."} {
		f.Add([]byte(bad))
	}
	s := &Server{textCache: newTextCache(32)}
	f.Fuzz(func(t *testing.T, src []byte) {
		want, wantErr := sqlparse.FingerprintBytes(src)
		buf := append([]byte(nil), src...)
		for k := 0; k < 3; k++ {
			got, err := s.fingerprint(buf)
			if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%q, sight %d: fingerprint = %x, %v; FingerprintBytes = %x, %v", src, k+1, got.Exact, err, want.Exact, wantErr)
			}
		}
		for i := range buf {
			buf[i] = ' '
		}
		if got, err := s.fingerprint(src); got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%q after its buffer was reused: fingerprint = %x, %v", src, got.Exact, err)
		}
	})
}
