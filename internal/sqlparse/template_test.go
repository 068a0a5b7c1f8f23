package sqlparse_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"autoview/internal/catalog"
	"autoview/internal/featenc"
	"autoview/internal/plan"
	"autoview/internal/sqlparse"
	"autoview/internal/workload"
)

// render prints toks back to SQL, one space between tokens, with the
// i-th literal token replaced by lits[i]. The output lexes to the same
// token stream, so it has toks' template.
func render(toks []sqlparse.Token, lits []sqlparse.Literal) string {
	var b strings.Builder
	i := 0
	for _, tok := range toks {
		text := tok.Text
		switch tok.Kind {
		case sqlparse.TokenEOF:
			return b.String()
		case sqlparse.TokenNumber, sqlparse.TokenString:
			text = lits[i].Text
			if lits[i].Kind == sqlparse.LitString {
				text = "'" + strings.ReplaceAll(text, "'", "''") + "'"
			}
			i++
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(text)
	}
	return b.String()
}

// lexLits are the literal tokens of toks as Template reports them.
func lexLits(toks []sqlparse.Token) []sqlparse.Literal {
	var lits []sqlparse.Literal
	for _, tok := range toks {
		switch tok.Kind {
		case sqlparse.TokenNumber:
			lits = append(lits, sqlparse.Literal{Kind: sqlparse.LitNumber, Text: tok.Text, Ord: len(lits) + 1})
		case sqlparse.TokenString:
			lits = append(lits, sqlparse.Literal{Kind: sqlparse.LitString, Text: tok.Text, Ord: len(lits) + 1})
		}
	}
	return lits
}

// Literal values per class, chosen for their spellings: leading zeros,
// trailing zeros, quotes the rendering must double, the empty string.
var (
	intLits = []string{"0", "7", "007", "1010", "289", "9223372036854775807"}
	decLits = []string{"1.50", "00.5", "0.0", "200.25", "3.14159", "123456789012345678901234.5"}
	strLits = []string{"", "v7", "it's", "''", "a''b'", "p07_fact1", "x -- y", "é"}
)

// freshLits returns literals of lits' classes with other values: from
// the lists above, or random, or — equal set — one value per class for
// every literal of that class.
func freshLits(rng *rand.Rand, lits []sqlparse.Literal, equal bool) []sqlparse.Literal {
	out := make([]sqlparse.Literal, len(lits))
	var same [3]string
	for i, l := range lits {
		class, pool := 0, intLits
		switch {
		case l.Kind == sqlparse.LitString:
			class, pool = 1, strLits
		case strings.Contains(l.Text, "."):
			class, pool = 2, decLits
		}
		var text string
		switch r := rng.Intn(3); {
		case r < 2:
			text = pool[rng.Intn(len(pool))]
		case class == 0:
			text = strconv.Itoa(rng.Intn(100000))
		case class == 1:
			text = "s" + strconv.Itoa(rng.Intn(1000)) + "'"
		default:
			text = strconv.Itoa(rng.Intn(1000)) + "." + strconv.Itoa(rng.Intn(1000))
		}
		if equal {
			if same[class] == "" {
				same[class] = text
			}
			text = same[class]
		}
		out[i] = sqlparse.Literal{Kind: l.Kind, Text: text, Ord: i + 1}
	}
	return out
}

// sameFeat reports whether two PlanFeats hold the same features.
func sameFeat(a, b *featenc.PlanFeat) bool {
	return reflect.DeepEqual(a.Ser, b.Ser) && reflect.DeepEqual(a.Tables, b.Tables) && a.Count == b.Count
}

// checkRebind requires the features of src, re-bound to lits, to equal
// the features of src's text with lits spliced in, parsed afresh —
// or, when a literal does not bind, both to fail with one message.
func checkRebind(t *testing.T, src string, pf *featenc.PlanFeat, toks []sqlparse.Token, lits []sqlparse.Literal, cat *catalog.Catalog) {
	t.Helper()
	key, _, err := sqlparse.Template([]byte(src), nil)
	if err != nil {
		t.Fatalf("Template(%q): %v", src, err)
	}
	sql := render(toks, lits)
	key2, got, err := sqlparse.Template([]byte(sql), nil)
	if err != nil {
		t.Fatalf("Template(%q): %v", sql, err)
	}
	if key2 != key {
		t.Fatalf("%q and %q differ only in literal values, but their templates differ", src, sql)
	}
	if !slices.Equal(got, lits) {
		t.Fatalf("Template(%q) literals = %q, spliced %q", sql, got, lits)
	}
	re, rerr := pf.Rebind(got)
	n, perr := plan.Parse(sql, cat)
	switch {
	case (rerr == nil) != (perr == nil):
		t.Fatalf("%q: Rebind error %v, Parse error %v", sql, rerr, perr)
	case perr != nil:
		bad := 0
		for _, l := range got {
			if _, err := plan.LiteralValue(l); err != nil {
				bad++
			}
		}
		if bad == 1 && rerr.Error() != perr.Error() {
			t.Fatalf("%q: Rebind error %q, Parse error %q", sql, rerr, perr)
		}
	case !sameFeat(re, featenc.Precompute(n)):
		t.Fatalf("%q: re-bound features\n%v\nparsed afresh\n%v", sql, re.Ser, featenc.Precompute(n).Ser)
	}
}

// TestRebindMatchesParse: every wk1, WK2 and JOB statement, and a few
// written for the literal spellings the workloads lack, re-bound to
// seeded literals of each class gives the features a fresh parse of
// the re-literaled text gives, and leaves the template's own features
// as they were. A literal past int64 fails both ways.
func TestRebindMatchesParse(t *testing.T) {
	wk1 := workload.WK1()
	extra := []string{
		`select key, val from p07_fact1 where 200.25 > val and 'v7' = dt`,
		`select key from p07_fact1 where 3 = 3 and dt = 'it''s' and cat = 3`,
		`select key from p07_fact1 where dt = 'v1' or dt = 'v1'`,
		"select t1.key from ( select key from p07_fact1 where val < 1.50 -- why\n and status <> 007 ) t1",
		`select dt, count(*) as cnt from p07_fact1 where status >= 2 group by dt having cnt > 5`,
	}
	statements := 0
	for _, w := range []*workload.Workload{wk1, workload.WK2(), workload.JOB()} {
		rng := rand.New(rand.NewSource(1))
		sqls := make([]string, 0, len(w.Queries)+len(extra))
		for _, q := range w.Queries {
			sqls = append(sqls, q.SQL)
		}
		if w == wk1 {
			sqls = append(sqls, extra...)
		}
		for _, src := range sqls {
			toks, err := sqlparse.Lex(src)
			if err != nil {
				t.Fatal(err)
			}
			_, lits, err := sqlparse.Template([]byte(src), nil)
			if err != nil {
				t.Fatal(err)
			}
			if want := lexLits(toks); !slices.Equal(lits, want) {
				t.Fatalf("Template(%q) literals = %q, the lexer's %q", src, lits, want)
			}
			n, err := plan.Parse(src, w.Cat)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			pf := featenc.Precompute(n)
			for v := 0; v < 4; v++ {
				checkRebind(t, src, pf, toks, freshLits(rng, lits, v == 0), w.Cat)
			}
			for i, l := range lits {
				if l.Kind == sqlparse.LitNumber && !strings.Contains(l.Text, ".") {
					over := append([]sqlparse.Literal(nil), lits...)
					over[i].Text = "9223372036854775808"
					checkRebind(t, src, pf, toks, over, w.Cat)
					break
				}
			}
			if !sameFeat(pf, featenc.Precompute(n)) {
				t.Fatalf("%q: re-binding changed the template's own features", src)
			}
			statements++
		}
	}
	if statements < 1500 {
		t.Fatalf("only %d statements checked", statements)
	}
}

// fuzzCatalog holds the tables FuzzParse's seeds name: wk1's and JOB's,
// and t, tt and s with every column the hand-written seeds use.
func fuzzCatalog() *catalog.Catalog {
	cat := catalog.New()
	for _, w := range []*workload.Workload{workload.WK1(), workload.JOB()} {
		for _, tb := range w.Cat.Tables() {
			if err := cat.Add(tb); err != nil {
				panic(err)
			}
		}
	}
	for _, name := range []string{"t", "tt", "s"} {
		err := cat.Add(&catalog.Table{Name: name, Columns: []catalog.Column{
			{Name: "a", Type: catalog.TypeInt}, {Name: "b", Type: catalog.TypeInt},
			{Name: "c", Type: catalog.TypeString}, {Name: "k", Type: catalog.TypeInt},
			{Name: "ab", Type: catalog.TypeFloat},
		}})
		if err != nil {
			panic(err)
		}
	}
	return cat
}

// FuzzRebind: for any text, Template agrees with the lexer (the same
// error, the same literals); and when the text builds, its features
// re-bound to literals drawn from alt equal the features of the text
// with those literals, parsed afresh, or both fail.
func FuzzRebind(f *testing.F) {
	for i, sql := range sqlparse.ParseSeeds() {
		f.Add(sql, strconv.Itoa(i)+"it's.5")
	}
	cat := fuzzCatalog()
	f.Fuzz(func(t *testing.T, src, alt string) {
		toks, lexErr := sqlparse.Lex(src)
		_, lits, err := sqlparse.Template([]byte(src), nil)
		if fmt.Sprint(err) != fmt.Sprint(lexErr) {
			t.Fatalf("%q: Template error %v, Lex error %v", src, err, lexErr)
		}
		if err != nil {
			return
		}
		if want := lexLits(toks); !slices.Equal(lits, want) {
			t.Fatalf("Template(%q) literals = %q, the lexer's %q", src, lits, want)
		}
		n, err := plan.Parse(src, cat)
		if err != nil {
			return
		}
		// New literal values, of each literal's class, cut from alt.
		fresh := make([]sqlparse.Literal, len(lits))
		for i, l := range lits {
			piece := alt
			if alt != "" {
				piece = alt[i%len(alt):]
			}
			fresh[i] = sqlparse.Literal{Kind: l.Kind, Text: piece, Ord: i + 1}
			if l.Kind == sqlparse.LitNumber {
				digits := strings.Map(func(r rune) rune {
					if r >= '0' && r <= '9' {
						return r
					}
					return -1
				}, piece) + "0"
				if strings.Contains(l.Text, ".") {
					digits = digits[:len(digits)/2+1] + "." + digits[len(digits)/2:]
				}
				fresh[i].Text = digits
			}
		}
		checkRebind(t, src, featenc.Precompute(n), toks, fresh, cat)
	})
}
