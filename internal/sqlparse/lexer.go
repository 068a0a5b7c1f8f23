// Package sqlparse provides a lexer and recursive-descent parser for the
// analytical SQL fragment used throughout the paper: SELECT lists with
// aggregates, FROM with base tables and parenthesized subqueries, INNER/LEFT
// joins with equality conditions, conjunctive/disjunctive WHERE predicates,
// and GROUP BY.
package sqlparse

import (
	"fmt"
	"strings"
	"unicode"
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

// lexer scans SQL text into tokens.
type lexer struct {
	src string
	pos int
}

func newLexer(src string) *lexer { return &lexer{src: src} }

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
	lx := newLexer(src)
	for {
		tok, err := lx.next()
		if err != nil {
			return dst, err
		}
		dst = append(dst, tok)
		if tok.Kind == TokenEOF {
			return dst, nil
		}
	}
}

func (l *lexer) errorf(pos int, format string, args ...any) error {
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) next() (Token, error) {
	l.skipSpace()
	if l.pos >= len(l.src) {
		return Token{Kind: TokenEOF, Pos: l.pos}, nil
	}
	start := l.pos
	ch := l.src[l.pos]
	switch {
	case isIdentStart(rune(ch)):
		return l.lexIdent(), nil
	case ch >= '0' && ch <= '9':
		return l.lexNumber()
	case ch == '\'':
		return l.lexString()
	}
	// Punctuation, including two-character operators.
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<>", "<=", ">=", "!=":
		l.pos += 2
		return Token{Kind: TokenPunct, Text: two, Pos: start}, nil
	}
	switch ch {
	case '(', ')', ',', '.', ';', '=', '<', '>', '*', '+', '-', '/':
		l.pos++
		// A substring, not string(ch): that conversion allocates.
		return Token{Kind: TokenPunct, Text: l.src[start:l.pos], Pos: start}, nil
	}
	return Token{}, l.errorf(start, "unexpected character %q", ch)
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		ch := l.src[l.pos]
		if ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r' {
			l.pos++
			continue
		}
		// Line comments: -- to end of line.
		if ch == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		return
	}
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

func (l *lexer) lexIdent() Token {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
		l.pos++
	}
	return Token{Kind: TokenIdent, Text: l.src[start:l.pos], Pos: start}
}

func (l *lexer) lexNumber() (Token, error) {
	start := l.pos
	sawDot := false
	for l.pos < len(l.src) {
		ch := l.src[l.pos]
		if ch >= '0' && ch <= '9' {
			l.pos++
			continue
		}
		if ch == '.' && !sawDot {
			sawDot = true
			l.pos++
			continue
		}
		break
	}
	text := l.src[start:l.pos]
	if strings.HasSuffix(text, ".") {
		return Token{}, l.errorf(start, "malformed number %q", text)
	}
	return Token{Kind: TokenNumber, Text: text, Pos: start}, nil
}

func (l *lexer) lexString() (Token, error) {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		ch := l.src[l.pos]
		if ch == '\'' {
			// '' is an escaped quote.
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			return Token{Kind: TokenString, Text: b.String(), Pos: start}, nil
		}
		b.WriteByte(ch)
		l.pos++
	}
	return Token{}, l.errorf(start, "unterminated string literal")
}
