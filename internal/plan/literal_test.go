package plan

import (
	"fmt"
	"strings"
	"testing"

	"autoview/internal/sqlparse"
	"autoview/internal/storage"
)

// sscanfOperand is how bindOperand read numeric literals before it used
// strconv, kept as the oracle.
func sscanfOperand(text string) (storage.Value, string) {
	if strings.ContainsAny(text, ".eE") {
		var f float64
		if _, err := fmt.Sscanf(text, "%g", &f); err != nil {
			return storage.Value{}, fmt.Sprintf("plan: bad numeric literal %q", text)
		}
		return storage.Float(f), ""
	}
	var i int64
	if _, err := fmt.Sscanf(text, "%d", &i); err != nil {
		return storage.Value{}, fmt.Sprintf("plan: bad integer literal %q", text)
	}
	return storage.Int(i), ""
}

// TestBindNumericLiterals: every form the lexer can emit as a number
// (digits with at most one interior dot) binds to the value, or fails
// with the error, that the fmt.Sscanf reading gave.
func TestBindNumericLiterals(t *testing.T) {
	huge := strings.Repeat("9", 400) + ".5" // beyond float64: out of range either way
	cases := []struct {
		text string
		want storage.Value
		err  string
	}{
		{text: "0", want: storage.Int(0)},
		{text: "7", want: storage.Int(7)},
		{text: "007", want: storage.Int(7)},
		{text: "1010", want: storage.Int(1010)},
		{text: "9223372036854775807", want: storage.Int(9223372036854775807)},
		{text: "9223372036854775808", err: `plan: bad integer literal "9223372036854775808"`},
		{text: "12345678901234567890", err: `plan: bad integer literal "12345678901234567890"`},
		{text: "1.50", want: storage.Float(1.5)},
		{text: "00.5", want: storage.Float(0.5)},
		{text: "0.0", want: storage.Float(0)},
		{text: "3.14159", want: storage.Float(3.14159)},
		{text: "0.1", want: storage.Float(0.1)},
		{text: "123456789012345678901234.5", want: storage.Float(123456789012345678901234.5)},
		{text: huge, err: fmt.Sprintf("plan: bad numeric literal %q", huge)},
	}
	for _, c := range cases {
		toks, err := sqlparse.Lex(c.text)
		if err != nil || len(toks) != 2 || toks[0].Kind != sqlparse.TokenNumber || toks[0].Text != c.text {
			t.Fatalf("%q does not lex as one number token: %v %v", c.text, toks, err)
		}
		got, err := bindOperand(&sqlparse.Literal{Kind: sqlparse.LitNumber, Text: c.text}, nil)
		gotErr := ""
		if err != nil {
			gotErr = err.Error()
		}
		if gotErr != c.err || (err == nil && got != ConstOperand(c.want)) {
			t.Errorf("%q: bound %+v, error %q; want %+v, error %q", c.text, got, gotErr, c.want, c.err)
		}
		if oracle, oracleErr := sscanfOperand(c.text); gotErr != oracleErr || (err == nil && got != ConstOperand(oracle)) {
			t.Errorf("%q: bound %+v, error %q; fmt.Sscanf read %+v, error %q", c.text, got, gotErr, oracle, oracleErr)
		}
	}
}
