// Package sqlparse provides a lexer and recursive-descent parser for the
// analytical SQL fragment used throughout the paper: SELECT lists with
// aggregates, FROM with base tables and parenthesized subqueries, INNER/LEFT
// joins with equality conditions, conjunctive/disjunctive WHERE predicates,
// and GROUP BY.
//
// Identifiers are ASCII: a letter or '_', then letters, digits and '_'.
// Outside a string literal a byte of 0x80 or above is a syntax error
// naming the character it starts, or the byte itself where it starts no
// valid UTF-8 sequence, at the byte offset where it starts.
package sqlparse

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// TokenKind classifies lexer tokens.
type TokenKind int

const (
	// TokenEOF marks the end of input.
	TokenEOF TokenKind = iota
	// TokenIdent is an identifier or keyword (keywords are resolved by
	// the parser; the lexer only reports the raw text).
	TokenIdent
	// TokenNumber is an integer or decimal literal.
	TokenNumber
	// TokenString is a single-quoted string literal (quotes stripped).
	TokenString
	// TokenPunct is an operator or punctuation token: ( ) , . ; = <> <=
	// >= < > * !=
	TokenPunct
)

// Token is one lexical token with its source position (byte offset).
type Token struct {
	Kind TokenKind
	Text string
	Pos  int
}

func (t Token) String() string {
	switch t.Kind {
	case TokenEOF:
		return "<eof>"
	case TokenString:
		return "'" + t.Text + "'"
	default:
		return t.Text
	}
}

// SyntaxError describes a lexing or parsing failure with its position.
type SyntaxError struct {
	Pos int
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("sqlparse: position %d: %s", e.Pos, e.Msg)
}

// Lex tokenizes the entire input. It is exported for tests and tooling.
func Lex(src string) ([]Token, error) {
	// SQL averages one token per ~6 bytes; sizing for that turns the
	// append growth sequence into a single allocation for typical texts.
	toks, err := lexInto(make([]Token, 0, 8+len(src)/6), src)
	if err != nil {
		return nil, err
	}
	return toks, nil
}

// lexInto appends src's tokens, through the closing TokenEOF, to dst;
// on an error it returns what it had appended.
func lexInto(dst []Token, src string) ([]Token, error) {
	for pos := 0; ; {
		kind, start, end := scan(src, pos)
		switch kind {
		case tokBad:
			return dst, scanError(src, start, end)
		case TokenString:
			dst = append(dst, Token{Kind: kind, Text: unquote(src[start+1 : end-1]), Pos: start})
		default:
			dst = append(dst, Token{Kind: kind, Text: src[start:end], Pos: start})
			if kind == TokenEOF {
				return dst, nil
			}
		}
		pos = end
	}
}

// tokBad is scan's kind for a byte no token starts with, a number that
// ends in '.' and a string with no closing quote; scanError says which.
const tokBad TokenKind = -1

// Bits of identClass: which bytes start an identifier, and which
// continue one.
const (
	identStart = 1 << iota
	identPart
)

// identClass classifies each byte for identifiers: '_' and the ASCII
// letters start one, and they and the ASCII digits continue it. No byte
// of 0x80 or above is part of an identifier.
var identClass = func() (c [256]uint8) {
	for b := range c {
		switch {
		case b == '_' || 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z':
			c[b] = identStart | identPart
		case '0' <= b && b <= '9':
			c[b] = identPart
		}
	}
	return c
}()

// scan is the one copy of the fragment's token rules, shared by the
// lexer and the fingerprint and template scans. From pos it skips
// whitespace and -- line comments and returns the next token's kind
// and byte span [start, end): TokenEOF at the end of src, with
// start = end = len(src), and tokBad where no token can be read. A
// string's span includes its quotes.
func scan[T string | []byte](src T, pos int) (kind TokenKind, start, end int) {
	n := len(src)
	for pos < n {
		if c := src[pos]; c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			pos++
		} else if c == '-' && pos+1 < n && src[pos+1] == '-' {
			for pos < n && src[pos] != '\n' {
				pos++
			}
		} else {
			break
		}
	}
	if pos == n {
		return TokenEOF, n, n
	}
	start = pos
	c := src[pos]
	switch {
	case identClass[c]&identStart != 0:
		for pos++; pos < n && identClass[src[pos]] != 0; pos++ {
		}
		return TokenIdent, start, pos
	case c >= '0' && c <= '9':
		sawDot := false
		for pos++; pos < n; pos++ {
			if d := src[pos]; d == '.' && !sawDot {
				sawDot = true
			} else if d < '0' || d > '9' {
				break
			}
		}
		if src[pos-1] == '.' {
			return tokBad, start, pos
		}
		return TokenNumber, start, pos
	case c == '\'':
		for pos++; pos < n; pos++ {
			if src[pos] == '\'' {
				if pos+1 < n && src[pos+1] == '\'' {
					pos++ // '' is an escaped quote
					continue
				}
				return TokenString, start, pos + 1
			}
		}
		return tokBad, start, n
	}
	// Punctuation, two-character operators first.
	if pos+1 < n {
		if d := src[pos+1]; (c == '<' && (d == '>' || d == '=')) || ((c == '>' || c == '!') && d == '=') {
			return TokenPunct, start, pos + 2
		}
	}
	switch c {
	case '(', ')', ',', '.', ';', '=', '<', '>', '*', '+', '-', '/':
		return TokenPunct, start, pos + 1
	}
	return tokBad, start, pos + 1
}

// scanError is the *SyntaxError of the tokBad span [start, end) of src.
// A byte of 0x80 or above is named as the UTF-8 character it starts, or
// as itself where it starts none.
func scanError[T string | []byte](src T, start, end int) error {
	switch c := src[start]; {
	case c == '\'':
		return &SyntaxError{Pos: start, Msg: "unterminated string literal"}
	case c >= '0' && c <= '9':
		return &SyntaxError{Pos: start, Msg: fmt.Sprintf("malformed number %q", string(src[start:end]))}
	case c >= utf8.RuneSelf:
		r, size := utf8.DecodeRuneInString(string(src[start:min(start+utf8.UTFMax, len(src))]))
		if r == utf8.RuneError && size <= 1 {
			return &SyntaxError{Pos: start, Msg: fmt.Sprintf(`unexpected character '\x%02x'`, c)}
		}
		return &SyntaxError{Pos: start, Msg: fmt.Sprintf("unexpected character %q", r)}
	default:
		return &SyntaxError{Pos: start, Msg: fmt.Sprintf("unexpected character %q", c)}
	}
}

// unquote is the value of a string literal whose body, the bytes
// between its quotes, is body: body itself unless it holds a quote,
// which is escaped by doubling it.
func unquote(body string) string {
	if strings.IndexByte(body, '\'') < 0 {
		return body
	}
	return strings.ReplaceAll(body, "''", "'")
}
