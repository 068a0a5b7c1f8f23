package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"autoview/internal/sqlparse"
)

// textKey is the key s's text cache files sql under.
func textKey(s *Server, sql string) cacheKey { return s.textCache.key([]byte(sql)) }

// textCached reports whether s's text cache holds sql's bytes, without
// setting a reference bit or counting a probe. It scans the shard under
// its writers' lock, so no racing put can hide the entry.
func textCached(s *Server, sql string) bool {
	k := textKey(s, sql)
	sh := s.textCache.fps.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for i := range sh.tab {
		if e := sh.tab[i].Load(); e != nil && e.key == k && e.val.text == sql {
			return true
		}
	}
	return false
}

// warmTexts runs send until s's text cache holds every text, at most
// eight times. A text is admitted on its second miss unless both its
// admission slots were retaken in between (by texts sent in the same
// requests, while they are not cached themselves), so a few texts take
// a send or two more.
func warmTexts(t *testing.T, s *Server, texts []string, send func()) {
	t.Helper()
	for k := 0; k < 8; k++ {
		send()
		if !slices.ContainsFunc(texts, func(sql string) bool { return !textCached(s, sql) }) {
			return
		}
	}
	for _, sql := range texts {
		if !textCached(s, sql) {
			t.Fatalf("%q is not in the text cache after eight sends", sql)
		}
	}
}

// lonelyTexts returns the texts with an admission slot in s that no
// other distinct text of texts uses: each is admitted on its second
// miss whatever order the texts are sent in.
func lonelyTexts(s *Server, texts []string) map[string]bool {
	users := map[*atomic.Uint64]map[string]bool{}
	for _, sql := range texts {
		k := textKey(s, sql)
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
// a comment variant of a hot query both of whose admission slots are
// hot queries' slots, so the senders overwrite the repeaters' admission
// tags while the repeaters fill the text cache, and a hot text can lose
// its admission. The first novel body's variants each take both slots
// of the hot query they replace, and it is sent between the first two
// sends of one repeater with the other held back: those sends lose their
// admissions whatever the schedule, and the test requires at least one
// hot text a repeater sent twice to be missing from the cache. Every
// reply must be the one the model its model_version names gives
// single-threaded, and every hot text of the uncontested body that no
// other text shares a slot with must end up cached. The admission table
// is small (CacheSize 256) so that variants with both slots on a hot
// query's are cheap to find.
func TestTextCacheRacesReload(t *testing.T) {
	s, ts := newTestServer(t, 2, Config{CacheSize: 256})
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
	at := &s.textCache.admits
	slotsOf := func(sql string) [2]*atomic.Uint64 {
		k := textKey(s, sql)
		return [2]*atomic.Uint64{at.slot(k), at.altSlot(k)}
	}
	hotSlots := map[*atomic.Uint64]bool{}
	for _, q := range hot[0] {
		for _, slot := range slotsOf(q) {
			hotSlots[slot] = true
		}
	}
	// novel[r] holds, for each round k, hot[0] with each query replaced by a comment
	// variant never sent before whose two slots are hot[0]'s; in
	// novel[0][0], the contest body, they are its own query's two.
	var all []string
	n := 0
	variant := func(q string, ok func(slots [2]*atomic.Uint64) bool) string {
		for ; ; n++ {
			if v := q + " -- " + strconv.Itoa(n); ok(slotsOf(v)) {
				n++
				return v
			}
		}
	}
	novel := make([][]string, senders)
	for r := range novel {
		for k := 0; k < rounds; k++ {
			var qs []string
			for _, q := range hot[0] {
				own := slotsOf(q)
				qs = append(qs, variant(q, func(sl [2]*atomic.Uint64) bool {
					if r == 0 && k == 0 {
						return (sl[0] == own[0] && sl[1] == own[1]) || (sl[0] == own[1] && sl[1] == own[0])
					}
					return hotSlots[sl[0]] && hotSlots[sl[1]]
				}))
			}
			all = append(all, qs...)
			novel[r] = append(novel[r], qs...)
		}
	}
	all = append(all, hot[0]...)
	all = append(all, hot[1]...)
	for _, v := range vs.Views {
		all = append(all, v.SQL)
	}

	// The contest: repeater 0 sends the hot bodies (every hot[0] text's
	// first miss), sender 0 the contest body, repeater 0 the hot bodies
	// again (misses that find no tag), and only then does repeater 1
	// start. From its third round on, a repeater counts the hot texts it
	// has sent twice that the cache does not hold: each lost an
	// admission.
	r0Sent, contested, r0Checked := make(chan struct{}), make(chan struct{}), make(chan struct{})
	await := func(ch chan struct{}) {
		select {
		case <-ch:
		case <-time.After(time.Minute):
			t.Error("the contest's hand-off timed out")
		}
	}
	var lost atomic.Int64
	hits := obsTextCacheHit.Value()
	replies, served := raceReloads(t, ts.URL, ckpts, repeaters+senders, rounds, func(r, k int) [][]estimatePair {
		switch {
		case r == 0 && k == 1:
			close(r0Sent)
			await(contested)
		case r == 1 && k == 0:
			await(r0Checked)
		case r == repeaters && k == 0:
			await(r0Sent)
		case r == repeaters && k == 1:
			close(contested)
		}
		if r < repeaters {
			if k >= 2 {
				for _, q := range append(hot[0][:len(hot[0]):len(hot[0])], hot[1]...) {
					if !textCached(s, q) {
						lost.Add(1)
					}
				}
			}
			if r == 0 && k == 2 {
				close(r0Checked)
			}
			return [][]estimatePair{pairsOf(hot[0]), pairsOf(hot[1])}
		}
		return [][]estimatePair{pairsOf(novel[r-repeaters][k*perBody : (k+1)*perBody])}
	})
	checkReplies(t, s, boot, served, oracles, replies)
	if lost.Load() == 0 {
		t.Fatal("no hot text lost an admission to the novel texts")
	}
	lonely := lonelyTexts(s, all)
	for _, q := range hot[1] {
		if lonely[q] && !textCached(s, q) {
			t.Fatalf("hot %q is not cached after %d sends", q, repeaters*rounds)
		}
	}
	if obsTextCacheHit.Value() == hits {
		t.Fatal("the repeaters never hit the text cache")
	}
	t.Logf("%d sightings of a hot text a repeater had sent twice, not cached", lost.Load())
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
	ka := textKey(s, a)
	b := ""
	for n := 0; b == ""; n++ {
		v := a + " -- " + strconv.Itoa(n)
		if kv := textKey(s, v); at.slot(kv) == at.slot(ka) && at.altSlot(kv) != at.altSlot(ka) {
			b = v
		}
	}
	for k := 0; k < 1000; k++ {
		for _, sql := range []string{a, b} {
			if _, _, err := s.fingerprint([]byte(sql)); err != nil {
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

// TestTextCacheCollisions: with every text hashed alike (the collide
// seam), every probe meets an entry filed under the text's key, and
// Server.fingerprint must still answer exactly FingerprintBytes' value
// and error text for each text, sent in turn with the others, and hit
// only when the entry holds the text's own bytes.
func TestTextCacheCollisions(t *testing.T) {
	s := &Server{textCache: newTextCache(32)}
	s.textCache.collide = true
	texts := []string{
		"select a from t where a = 1",
		"select a from t where a = 2",
		"select a from t where a = 1 ",
		"select  a from t where a = 1",
		"select a from t where a = 1 -- comment",
		"SELECT a FROM t WHERE a = 1",
		"select a from t where a = 'unterminated",
		"select \x80 from t",
		"",
		"select a from",
	}
	if k := textKey(s, texts[0]); k != textKey(s, texts[1]) {
		t.Fatal("the collide seam leaves texts apart")
	}
	// Every text shares one tag, so once any text has missed, each miss
	// of a text that lexes admits it, replacing the entry of the text
	// admitted before it: a text sent twice in a row misses, then hits.
	if _, _, err := s.fingerprint([]byte("select 1 from t")); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for _, sql := range texts {
			want, wantErr := sqlparse.FingerprintBytes([]byte(sql))
			for k := 0; k < 2; k++ {
				got, hit, err := s.fingerprint([]byte(sql))
				if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("%q, round %d: fingerprint = %x, %v; FingerprintBytes = %x, %v", sql, round, got.Exact, err, want.Exact, wantErr)
				}
				if wantHit := k == 1 && wantErr == nil; hit != wantHit {
					t.Fatalf("%q, round %d, send %d: hit = %v, want %v", sql, round, k+1, hit, wantHit)
				}
			}
		}
	}
}

// FuzzTextCache: Server.fingerprint is sqlparse.FingerprintBytes, value
// and error text, on a text's first, second and third sight — a miss,
// a miss that admits it, and a hit — and after the caller reuses the
// buffer it passed, on a text cache with the process's hash and on one
// where every text hashes alike (so each text meets the entry of the
// last one admitted). The caches are small, so the fuzzer's texts evict
// one another. Seeds: the wk1 statements, the parser's fuzz seeds (read
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
	collide := &Server{textCache: newTextCache(32)}
	collide.textCache.collide = true
	f.Fuzz(func(t *testing.T, src []byte) {
		want, wantErr := sqlparse.FingerprintBytes(src)
		for _, s := range []*Server{s, collide} {
			buf := append([]byte(nil), src...)
			for k := 0; k < 3; k++ {
				got, _, err := s.fingerprint(buf)
				if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("%q, sight %d, collide %v: fingerprint = %x, %v; FingerprintBytes = %x, %v",
						src, k+1, s.textCache.collide, got.Exact, err, want.Exact, wantErr)
				}
			}
			for i := range buf {
				buf[i] = ' '
			}
			if got, _, err := s.fingerprint(src); got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%q after its buffer was reused, collide %v: fingerprint = %x, %v", src, s.textCache.collide, got.Exact, err)
			}
		}
	})
}
