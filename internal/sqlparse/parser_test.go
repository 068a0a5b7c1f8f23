package sqlparse

import (
	"strings"
	"testing"
)

const paperQuery = `
select t1.user_id, count(*) as cnt
from (
  select user_id, memo from user_memo
  where dt='1010' and memo_type = 'pen' )
t1 inner join (
  select user_id, action from user_action
  where type = 1 and dt='1010' )
t2 on t1.user_id = t2.user_id
group by t1.user_id;
`

func TestParsePaperExample(t *testing.T) {
	stmt, err := Parse(paperQuery)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(stmt.Items) != 2 {
		t.Fatalf("want 2 select items, got %d", len(stmt.Items))
	}
	if stmt.Items[1].Alias != "cnt" {
		t.Errorf("want alias cnt, got %q", stmt.Items[1].Alias)
	}
	fc, ok := stmt.Items[1].Expr.(*FuncCall)
	if !ok || fc.Name != "count" || !fc.Star {
		t.Errorf("want count(*), got %#v", stmt.Items[1].Expr)
	}
	if stmt.From.Subquery == nil || stmt.From.Alias != "t1" {
		t.Errorf("want derived table t1, got %+v", stmt.From)
	}
	if len(stmt.Joins) != 1 {
		t.Fatalf("want 1 join, got %d", len(stmt.Joins))
	}
	j := stmt.Joins[0]
	if j.Type != JoinInner {
		t.Errorf("want inner join, got %v", j.Type)
	}
	if j.Right.Subquery == nil || j.Right.Alias != "t2" {
		t.Errorf("want derived table t2, got %+v", j.Right)
	}
	if len(stmt.GroupBy) != 1 || stmt.GroupBy[0].Qualifier != "t1" || stmt.GroupBy[0].Name != "user_id" {
		t.Errorf("bad group by: %+v", stmt.GroupBy)
	}
	inner := stmt.From.Subquery
	if inner.Where == nil {
		t.Fatal("inner subquery lost its WHERE")
	}
	conj := Conjuncts(inner.Where)
	if len(conj) != 2 {
		t.Errorf("want 2 conjuncts in inner WHERE, got %d", len(conj))
	}
}

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"select a, b from t",
		"select a from t where a = 1",
		"select a from t where a >= 1 and b < 'x'",
		"select a from t where (a = 1 or b = 2) and c <> 3",
		"select t.a from t inner join u on t.a = u.a",
		"select t.a from t left join u on t.a = u.a and t.b = u.b",
		"select a, count(*) as n from t group by a",
		"select a, sum(b) as s, avg(c) as m from t group by a",
		"select x.a from (select a from t where a = 1) x",
		"select min(a) as lo, max(a) as hi from t group by b",
	}
	for _, src := range cases {
		stmt, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		// Re-parse the rendered SQL; the second render must be stable.
		again, err := Parse(stmt.SQL())
		if err != nil {
			t.Errorf("re-Parse(%q): %v", stmt.SQL(), err)
			continue
		}
		if stmt.SQL() != again.SQL() {
			t.Errorf("round trip diverged:\n  %s\n  %s", stmt.SQL(), again.SQL())
		}
	}
}

// parseErrorCases are statements Parse must reject, with a fragment of
// the message; FuzzParse seeds from them too.
var parseErrorCases = []struct {
	src  string
	want string
}{
	{"", "expected"},
	{"select", "expected"},
	{"select a", `expected "from"`},
	{"select a from", "expected table"},
	{"select a from t where", "expected"},
	{"select a from t where a", "comparison"},
	{"select a from t where a ** 1", "unsupported operator"},
	{"select a from (select b from u)", "alias"},
	{"select a from t extra garbage ; more", "trailing"},
	{"select a from t where a = 'unterminated", "unterminated"},
	{"select a from t where a = 3.", "malformed number"},
	// Lexing is eager: a late lex error wins over an early parse error.
	{"select from t where a = 'unterminated", "unterminated"},
}

func TestParseErrors(t *testing.T) {
	for _, c := range parseErrorCases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q): want error containing %q, got nil", c.src, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q): error %q does not contain %q", c.src, err, c.want)
		}
	}
}

func TestLexStringsAndComments(t *testing.T) {
	toks, err := Lex("select 'it''s' -- comment\n , 42")
	if err != nil {
		t.Fatalf("Lex: %v", err)
	}
	var texts []string
	for _, tok := range toks {
		if tok.Kind == TokenEOF {
			break
		}
		texts = append(texts, tok.Text)
	}
	want := []string{"select", "it's", ",", "42"}
	if len(texts) != len(want) {
		t.Fatalf("got %v, want %v", texts, want)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("token %d: got %q want %q", i, texts[i], want[i])
		}
	}
}

func TestConjuncts(t *testing.T) {
	stmt, err := Parse("select a from t where a = 1 and b = 2 and c = 3")
	if err != nil {
		t.Fatal(err)
	}
	conj := Conjuncts(stmt.Where)
	if len(conj) != 3 {
		t.Fatalf("want 3 conjuncts, got %d", len(conj))
	}
}

// TestWalkVisitsAllNodes: a depth-first walk of a parsed nested
// predicate reaches every node the parser built.
func TestWalkVisitsAllNodes(t *testing.T) {
	stmt, err := Parse("select a from t where (a = 1 or b = 2) and c = 'x'")
	if err != nil {
		t.Fatal(err)
	}
	var walk func(Expr) int
	walk = func(e Expr) int {
		switch x := e.(type) {
		case *BinaryExpr:
			return 1 + walk(x.L) + walk(x.R)
		case *FuncCall:
			if x.Arg != nil {
				return 1 + walk(x.Arg)
			}
		}
		return 1
	}
	// and, or, three comparisons, six operands = 11 nodes.
	if n := walk(stmt.Where); n != 11 {
		t.Errorf("walk visited %d nodes, want 11", n)
	}
}

func TestParseHaving(t *testing.T) {
	stmt, err := Parse("select a, count(*) as n from t group by a having n > 2 and a < 5")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Having == nil {
		t.Fatal("HAVING lost")
	}
	if len(Conjuncts(stmt.Having)) != 2 {
		t.Errorf("having conjuncts = %d, want 2", len(Conjuncts(stmt.Having)))
	}
	// Round trip.
	again, err := Parse(stmt.SQL())
	if err != nil {
		t.Fatalf("re-parse %q: %v", stmt.SQL(), err)
	}
	if again.SQL() != stmt.SQL() {
		t.Errorf("round trip diverged: %s vs %s", again.SQL(), stmt.SQL())
	}
	// HAVING without GROUP BY is a syntax error in our fragment.
	if _, err := Parse("select a from t having a > 1"); err == nil {
		t.Error("HAVING without GROUP BY should not parse")
	}
}

func TestLexNumbersAndOperators(t *testing.T) {
	toks, err := Lex("1 2.5 <= >= <> != < > = ( ) * ;")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	var texts []string
	for _, tok := range toks {
		if tok.Kind == TokenEOF {
			break
		}
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	wantTexts := []string{"1", "2.5", "<=", ">=", "<>", "!=", "<", ">", "=", "(", ")", "*", ";"}
	if len(texts) != len(wantTexts) {
		t.Fatalf("texts = %v", texts)
	}
	for i, w := range wantTexts {
		if texts[i] != w {
			t.Errorf("token %d = %q, want %q", i, texts[i], w)
		}
	}
	if kinds[0] != TokenNumber || kinds[1] != TokenNumber || kinds[2] != TokenPunct {
		t.Errorf("kinds = %v", kinds)
	}
	if _, err := Lex("a @ b"); err == nil {
		t.Error("unexpected character should fail lexing")
	}
}

func TestTokenStringForms(t *testing.T) {
	if (Token{Kind: TokenEOF}).String() != "<eof>" {
		t.Error("EOF rendering")
	}
	if (Token{Kind: TokenString, Text: "x"}).String() != "'x'" {
		t.Error("string token rendering")
	}
	if (Token{Kind: TokenIdent, Text: "tbl"}).String() != "tbl" {
		t.Error("ident rendering")
	}
}

func TestSyntaxErrorPosition(t *testing.T) {
	_, err := Parse("select a from t where a ** 1")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("want *SyntaxError, got %T", err)
	}
	if se.Pos <= 0 {
		t.Errorf("position = %d, want > 0", se.Pos)
	}
}

// TestParseTokenBufferAllocs: Parse lexes into a pooled token slice, so
// a warm call allocates exactly what parsing already-lexed tokens does —
// the AST — however long the statement is (no string literals here: the
// lexer unescapes each into a copy of its own). The statement keeps no
// token, so the next Parse reusing the slice cannot change it.
func TestParseTokenBufferAllocs(t *testing.T) {
	short := "select a from t where b = 1"
	long := "select a, b, c, d, count(*) as n from t inner join u on t.a = u.a where b = 1"
	for i := 0; i < 40; i++ {
		long += " and c <> 22"
	}
	long += " group by a, b, c, d"
	for _, src := range []string{short, long} {
		toks, err := Lex(src)
		if err != nil {
			t.Fatal(err)
		}
		want := testing.AllocsPerRun(100, func() {
			if _, err := parseTokens(toks); err != nil {
				t.Fatal(err)
			}
		})
		got := testing.AllocsPerRun(100, func() {
			if _, err := Parse(src); err != nil {
				t.Fatal(err)
			}
		})
		if !raceEnabled && got != want {
			t.Errorf("%d tokens: warm Parse allocates %v, parsing its tokens alone %v", len(toks), got, want)
		}
	}

	stmt, err := Parse(long)
	if err != nil {
		t.Fatal(err)
	}
	before := stmt.SQL()
	if _, err := Parse("select zz from yy where xx = 99 group by zz"); err != nil {
		t.Fatal(err)
	}
	if after := stmt.SQL(); after != before {
		t.Errorf("a later Parse changed an earlier statement:\n  %s\n  %s", before, after)
	}
}

// FuzzParse drives the parser — which lexes into a pooled token slice —
// with arbitrary text and checks what every caller assumes: Parse never
// panics; the SQL a parsed statement prints parses again and prints the
// same text (printing is a fixed point of parse∘print); and a statement
// already returned cannot be changed by a later Parse that reuses the
// slice. Seeds: the first queries of wk1 and JOB, the fingerprint
// templates and the statements TestParseErrors rejects.
// fuzzParseFirst are FuzzParse's workload-shaped seeds: a wk1 and a JOB
// statement.
var fuzzParseFirst = []string{
	`select t2.attr, count(*) as cnt, sum(t1.val) as total from ( select key, val from p07_fact1 where status = 3 and dt = 'v7' and val < 200.25 ) t1 inner join ( select id, attr, grp from p07_dim1 where grp = 3 and attr = 'v0' and id < 289 ) t2 on t1.key = t2.id group by t2.attr;`,
	`select t1.movie_id, count(*) as cnt from ( select movie_id, company_id from movie_companies where company_type_id = 0 ) t1 inner join ( select id, phonetic_code from title where production_year = 0 and kind_id = 0 ) t2 on t1.movie_id = t2.id group by t1.movie_id;`,
}

func FuzzParse(f *testing.F) {
	first := fuzzParseFirst
	for i, sql := range first {
		f.Add(sql, first[1-i])
	}
	for _, sql := range fpTemplates {
		f.Add(sql, first[0])
	}
	for _, c := range parseErrorCases {
		f.Add(c.src, first[1])
	}
	f.Fuzz(func(t *testing.T, src, other string) {
		stmt, err := Parse(src)
		if err != nil {
			if stmt != nil {
				t.Fatalf("Parse(%q) returned a statement with error %v", src, err)
			}
			return
		}
		printed := stmt.SQL()
		// other is lexed into the slice src's tokens just left.
		if o, err := Parse(other); err == nil {
			_ = o.SQL()
		}
		if again := stmt.SQL(); again != printed {
			t.Fatalf("a later Parse(%q) changed an earlier statement:\nbefore %s\nafter  %s", other, printed, again)
		}
		re, err := Parse(printed)
		if err != nil {
			t.Fatalf("Parse(%q) printed %q, which does not parse: %v", src, printed, err)
		}
		if reprinted := re.SQL(); reprinted != printed {
			t.Fatalf("printing is not a fixed point for %q:\nfirst  %s\nsecond %s", src, printed, reprinted)
		}
	})
}
