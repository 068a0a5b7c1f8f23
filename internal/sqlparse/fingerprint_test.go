package sqlparse

import (
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

// TestFingerprintMatchesLexer: the fingerprint scanner must accept and
// reject exactly what the lexer does, so every parseable query is
// fingerprintable and every fingerprint error is a real lex error.
func TestFingerprintMatchesLexer(t *testing.T) {
	inputs := append([]string{}, fpTemplates...)
	inputs = append(inputs,
		``, `   `, `-- only a comment`,
		`select a from t where b = 'unterminated`,
		`select 1. from t`,
		`select a from t where b = 1.2.3`,
		"select \x00",
		`select 'a''b' from t`,
		`select a from t where b = 'it''s'`,
	)
	for _, sql := range inputs {
		_, lexErr := Lex(sql)
		_, fpErr := Fingerprint(sql)
		if (lexErr == nil) != (fpErr == nil) {
			t.Errorf("Fingerprint/Lex disagree on %q: lex err %v, fp err %v", sql, lexErr, fpErr)
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
// determinism, string/bytes agreement, lexer agreement, and the
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
		_, lexErr := Lex(sql)
		if (lexErr == nil) != (err1 == nil) {
			t.Fatalf("lexer disagreement: lex err %v, fp err %v", lexErr, err1)
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
