package sqlparse

import (
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// Distinct query templates: pairwise-distinct Exact fingerprints are
// required — a collision would let the serving cache return one query's
// estimate for another.
var fpTemplates = []string{
	`select a from t`,
	`select a from tt`,
	`select a, b from t`,
	`select ab from t`,
	`select a from t where b = 1`,
	`select a from t where b = 1 and c = 2`,
	`select a from t where b = 1 or c = 2`,
	`select a from t inner join s on t.k = s.k`,
	`select a from t left join s on t.k = s.k`,
	`select count(*) from t group by a`,
	`select sum(b) from t group by a`,
	`select a from ( select a from t where b = 1 ) x`,
	`select a from t where b <> 1`,
	`select a from t where b <= 1`,
	`select a from t where b < 1`,
	`select a from t where b >= 1`,
	`select a from t where b != 1`,
}

func TestFingerprintDeterministic(t *testing.T) {
	for _, sql := range fpTemplates {
		a, err := Fingerprint(sql)
		if err != nil {
			t.Fatalf("Fingerprint(%q): %v", sql, err)
		}
		b, err := Fingerprint(sql)
		if err != nil {
			t.Fatalf("Fingerprint(%q) second call: %v", sql, err)
		}
		if a != b {
			t.Fatalf("Fingerprint(%q) not deterministic: %x vs %x", sql, a.Exact, b.Exact)
		}
		c, err := FingerprintBytes([]byte(sql))
		if err != nil || c != a {
			t.Fatalf("FingerprintBytes(%q) = %x, %v; want %x", sql, c.Exact, err, a.Exact)
		}
	}
}

func TestFingerprintCollisionFree(t *testing.T) {
	exact := map[[16]byte]string{}
	for _, sql := range fpTemplates {
		fp, err := Fingerprint(sql)
		if err != nil {
			t.Fatalf("Fingerprint(%q): %v", sql, err)
		}
		if prev, dup := exact[fp.Exact]; dup {
			t.Fatalf("exact collision: %q vs %q", prev, sql)
		}
		exact[fp.Exact] = sql
	}
}

// TestFingerprintLiteralNormalization pins the property the serving
// cache leans on: queries differing only in literal values — same
// template, other literals — never share an Exact digest.
func TestFingerprintLiteralNormalization(t *testing.T) {
	groups := [][]string{
		{
			`select a from t where b = 1`,
			`select a from t where b = 2`,
			`select a from t where b = 31415`,
			`select a from t where b = 3.25`,
			`select a from t where b = 'pen'`, // kind change is still "only literals"
		},
		{
			`select a from t where b = 'x' and c = 'y'`,
			`select a from t where b = 'xx' and c = ''`,
			`select a from t where b = '1' and c = '2'`,
		},
	}
	for _, group := range groups {
		base, err := Fingerprint(group[0])
		if err != nil {
			t.Fatalf("Fingerprint(%q): %v", group[0], err)
		}
		seen := map[[16]byte]string{base.Exact: group[0]}
		for _, sql := range group[1:] {
			fp, err := Fingerprint(sql)
			if err != nil {
				t.Fatalf("Fingerprint(%q): %v", sql, err)
			}
			if prev, dup := seen[fp.Exact]; dup {
				t.Errorf("exact digests coincide for different literals: %q vs %q", prev, sql)
			}
			seen[fp.Exact] = sql
		}
	}
}

// TestFingerprintIgnoresLayout: whitespace and comments never reach the
// canonical stream, so reformatting a query keeps its digest.
func TestFingerprintIgnoresLayout(t *testing.T) {
	a, err := Fingerprint(`select a from t where b = 1`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fingerprint("select  a\n\tfrom t -- trailing comment\n where b =\r\n1")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("layout changed the fingerprint: %x vs %x", a.Exact, b.Exact)
	}
}

// TestFingerprintMatchesLexer: the fingerprint and template scans must
// accept and reject exactly what the lexer does, failing with its error
// (message and position), so every parseable query is fingerprintable
// and every fingerprint error is the lexer's.
func TestFingerprintMatchesLexer(t *testing.T) {
	inputs := append([]string{}, fpTemplates...)
	inputs = append(inputs,
		``, `   `, `-- only a comment`,
		`select a from t where b = 'unterminated`,
		`select 1. from t`,
		`select a from t where b = 1.2.3`,
		"select \x00",
		"select \xff",
		`select a ! b`,
		`select 'a''b' from t`,
		`select a from t where b = 'it''s'`,
	)
	for _, sql := range inputs {
		if err := scansAsLexer(sql); err != nil {
			t.Error(err)
		}
	}
}

// TestNonASCIIOutsideStrings: identifiers are ASCII, so a byte of 0x80
// or above outside a string literal fails the lexer and the fingerprint
// alike, naming the UTF-8 character it starts — or the byte, where it
// starts none — at the offset of its first byte. The same characters
// inside a string literal are the literal's value.
func TestNonASCIIOutsideStrings(t *testing.T) {
	for _, c := range []struct{ sql, want string }{
		{"select é from t", "sqlparse: position 7: unexpected character 'é'"},
		{"select naïve from t", "sqlparse: position 9: unexpected character 'ï'"},
		{"select ê from t", "sqlparse: position 7: unexpected character 'ê'"},
		{"select \xff from t", `sqlparse: position 7: unexpected character '\xff'`},
	} {
		if _, err := Lex(c.sql); fmt.Sprint(err) != c.want {
			t.Errorf("Lex(%q): error %v, want %s", c.sql, err, c.want)
		}
		if _, err := FingerprintBytes([]byte(c.sql)); fmt.Sprint(err) != c.want {
			t.Errorf("FingerprintBytes(%q): error %v, want %s", c.sql, err, c.want)
		}
		if err := scansAsLexer(c.sql); err != nil {
			t.Error(err)
		}
		quoted := strings.Replace(c.sql, "select ", "select a from t where b = '", 1) + "'"
		if toks, err := Lex(quoted); err != nil || toks[len(toks)-2].Text != quoted[strings.IndexByte(quoted, '\'')+1:len(quoted)-1] {
			t.Errorf("Lex(%q) = %v, %v: want the characters kept as a string literal", quoted, toks, err)
		}
	}
}

// scansAsLexer reports how Fingerprint or Template disagrees with Lex
// on sql: in whether it fails, or in the error's text.
func scansAsLexer(sql string) error {
	_, lexErr := Lex(sql)
	_, fpErr := Fingerprint(sql)
	_, _, tmplErr := Template([]byte(sql), nil)
	want := fmt.Sprint(lexErr)
	if got := fmt.Sprint(fpErr); got != want {
		return fmt.Errorf("%q: Fingerprint error %s, Lex error %s", sql, got, want)
	}
	if got := fmt.Sprint(tmplErr); got != want {
		return fmt.Errorf("%q: Template error %s, Lex error %s", sql, got, want)
	}
	return nil
}

// TestFingerprintGoldenDigests pins the hex of Exact and TemplateKey,
// which FP's doc promises are stable across processes: a change of
// scanner or of stream framing must keep every one.
func TestFingerprintGoldenDigests(t *testing.T) {
	golden := []struct{ sql, exact, tmpl string }{
		{`select a from t`, "e8d9b41333eda806d7deb9bc6e4357c5", "730449ec728293a348905064604152d2"},
		{`select a from tt`, "f0c9dde12d9f6e7c3ed0e2d8d8dfe385", "fc3e82e074893869b1f10c056fe05aed"},
		{`select a, b from t`, "c210202c7e839a34be617f11eeebfa2a", "816894a880748a954b8767861abee259"},
		{`select ab from t`, "6dae3e02879ad6414d72bfa0ec5dff2d", "590f19bd6435a755f0af538815032255"},
		{`select a from t where b = 1`, "df7b9de531b8bdffec2d55e7111f4249", "5a3611ba11b6c2dfb45376b70fe37a42"},
		{`select a from t where b = 1 and c = 2`, "d0118bb72c72a49191ca07a5ee346a15", "47d06bb870467e3d1956a009696e184c"},
		{`select a from t where b = 1 or c = 2`, "bcbc9d15701f2a5f725d252a9969bd6a", "f7821e1031216a9b6260cff1e9a2bd4e"},
		{`select a from t inner join s on t.k = s.k`, "fabd4b970eb65efc9449d073ec54fbd8", "959962a876df69206acf3be9e3965d7a"},
		{`select a from t left join s on t.k = s.k`, "111cf265332b23c6f710f04b1c002981", "d5aaaf367f1edb7c81616a241093f595"},
		{`select count(*) from t group by a`, "4fbaec6b9875f00d586fad62e0392bfe", "e4d03d00e99ab07262b5814911a91f85"},
		{`select sum(b) from t group by a`, "9b382b3e63ef22aab3e6a937c7a08b7e", "8eba4894b630a700e5be5b28993dce03"},
		{`select a from ( select a from t where b = 1 ) x`, "592fc777dfc5d0c30a684432b11ff379", "886fcc0557c4e3e068cfbbe7c7ae7c0a"},
		{`select a from t where b <> 1`, "b66cc60c1204614e4fc763eede6197e5", "8b79e44873280e748eabc56a309c95c9"},
		{`select a from t where b <= 1`, "c053212d5be7658d0a8717c56a4abf75", "154215f1de5ca84a74cbedecdf9cd884"},
		{`select a from t where b < 1`, "d082ac521d160f691a94b3c648056ee8", "e667f30bb0e393746dbcd24239d73785"},
		{`select a from t where b >= 1`, "ad8138479b2baf2a68aee57c6147be81", "440b31067b0c0add0cc1cf24160bb8f9"},
		{`select a from t where b != 1`, "bafba8b9453728c635c391792e2997ef", "af002d3f52e4aebaddc755bc9abbc19a"},
		{fuzzParseFirst[0], "20d3953d1cc5b80a298b0af2c6c56439", "b2373f9860593f131f4328d4e82380aa"},
		{fuzzParseFirst[1], "9f8d0246a7a8ed8464dc8fe726b396d1", "b861b2686b700d39278f1da5730d8e2a"},
		{`select a from t where b = 'it''s'`, "3c2f6b18f34251f11e4ceaf0706de032", "97f33e28f05dc4aa1701f69998aa9153"},
		{"select  a\n\tfrom t -- trailing comment\n where b =\r\n1", "df7b9de531b8bdffec2d55e7111f4249", "5a3611ba11b6c2dfb45376b70fe37a42"},
	}
	for _, g := range golden {
		fp, err := Fingerprint(g.sql)
		if err != nil {
			t.Fatal(err)
		}
		key, _, err := Template([]byte(g.sql), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(fp.Exact[:]); got != g.exact {
			t.Errorf("Exact(%q) = %s, want %s", g.sql, got, g.exact)
		}
		if got := hex.EncodeToString(key[:]); got != g.tmpl {
			t.Errorf("TemplateKey(%q) = %s, want %s", g.sql, got, g.tmpl)
		}
	}
}

func TestFingerprintZeroAlloc(t *testing.T) {
	sql := fpTemplates[8]
	if _, err := Fingerprint(sql); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Fingerprint(sql); err != nil {
			t.Fatal(err)
		}
	})
	// sync.Pool drops a random fraction of Puts under the race
	// detector, so only pin the plain build.
	if !raceEnabled && allocs > 0 {
		t.Fatalf("Fingerprint allocates %v allocs/op, want 0", allocs)
	}
}

// FuzzFingerprint drives the fingerprint scanner with arbitrary SQL
// bytes plus a literal mutation, checking the full contract:
// determinism, string/bytes agreement, lexer agreement (Fingerprint and
// Template fail with Lex's error, message and position), and the
// literal-rewrite property of Exact (changing any literal's bytes moves
// it).
func FuzzFingerprint(f *testing.F) {
	for _, sql := range fpTemplates {
		f.Add(sql, "42")
	}
	// Malformed-request shapes from the serve decoder corpus: the
	// scanner must reject them exactly as the lexer does, never panic.
	for _, bad := range []string{
		`hello`, `{"pairs":[`, `select * frm nowhere`, "\x00\xff\xfe",
		strings.Repeat(`"`, 60), `select 1. from t`, `'open`,
	} {
		f.Add(bad, "x")
	}
	f.Fuzz(func(t *testing.T, sql, lit string) {
		fp1, err1 := Fingerprint(sql)
		fp2, err2 := Fingerprint(sql)
		if (err1 == nil) != (err2 == nil) || fp1 != fp2 {
			t.Fatalf("nondeterministic: (%v, %v) vs (%v, %v)", fp1, err1, fp2, err2)
		}
		fpB, errB := FingerprintBytes([]byte(sql))
		if (err1 == nil) != (errB == nil) || fpB != fp1 {
			t.Fatalf("string/bytes disagree: (%v, %v) vs (%v, %v)", fp1, err1, fpB, errB)
		}
		if err := scansAsLexer(sql); err != nil {
			t.Fatal(err)
		}
		if err1 != nil {
			return
		}
		// Rewrite every literal to a sanitized variant of lit: changing
		// any literal's bytes must move the exact digest.
		toks, err := Lex(sql)
		if err != nil {
			t.Fatal(err)
		}
		variant, changed := rewriteLiterals(sql, toks, lit)
		if variant == sql {
			return
		}
		vfp, err := Fingerprint(variant)
		if err != nil {
			t.Fatalf("literal rewrite broke lexing: %q -> %q: %v", sql, variant, err)
		}
		if changed && vfp.Exact == fp1.Exact {
			t.Fatalf("different literals, same exact digest: %q vs %q", sql, variant)
		}
	})
}

// rewriteLiterals rebuilds sql with every literal replaced by a variant
// derived from lit, reporting whether any literal's bytes changed.
func rewriteLiterals(sql string, toks []Token, lit string) (string, bool) {
	num := sanitizeNumber(lit)
	str := sanitizeString(lit)
	var b strings.Builder
	changed := false
	last := 0
	for _, tok := range toks {
		if tok.Kind != TokenNumber && tok.Kind != TokenString {
			continue
		}
		end := literalEnd(sql, tok)
		b.WriteString(sql[last:tok.Pos])
		// Pad with spaces so the replacement can never merge with
		// adjacent source bytes into a different token (e.g. a dotless
		// number followed by a "." punct token).
		if tok.Kind == TokenNumber {
			b.WriteString(" " + num + " ")
			changed = changed || sql[tok.Pos:end] != num
		} else {
			b.WriteString(" '" + str + "' ")
			changed = changed || sql[tok.Pos:end] != "'"+str+"'"
		}
		last = end
	}
	b.WriteString(sql[last:])
	return b.String(), changed
}

// literalEnd rescans the literal's source bytes to find where it ends
// (token positions alone don't mark the end: Text is unescaped for
// strings, and layout or comments may follow before the next token).
func literalEnd(sql string, tok Token) int {
	if tok.Kind == TokenNumber {
		return tok.Pos + len(tok.Text)
	}
	i := tok.Pos + 1
	for {
		if sql[i] == '\'' {
			if i+1 < len(sql) && sql[i+1] == '\'' {
				i += 2
				continue
			}
			return i + 1
		}
		i++
	}
}

// sanitizeNumber maps arbitrary fuzz bytes onto a valid number literal.
func sanitizeNumber(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] >= '0' && s[i] <= '9' {
			b.WriteByte(s[i])
		}
	}
	if b.Len() == 0 {
		return "7"
	}
	return b.String()
}

// sanitizeString maps arbitrary fuzz bytes onto a valid string-literal
// body (quotes doubled, no control bytes).
func sanitizeString(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '\'' {
			b.WriteString("''")
			continue
		}
		if c >= 0x20 && c < 0x7f {
			b.WriteByte(c)
		}
	}
	return b.String()
}
