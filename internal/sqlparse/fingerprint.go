package sqlparse

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"strings"
	"sync"
)

// FP is the canonical fingerprint of one SQL text, computed at the
// lexical level (no parse, no catalog binding) so the serving hot path
// can identify repeated queries before doing any per-request work.
//
// Exact is one digest over the statement's token stream: identifiers and
// punctuation verbatim, each literal as a placeholder, followed by the
// literal values (kind plus raw bytes, length-prefixed, in source
// order). Whitespace and -- comments never contribute. Equal Exact
// fingerprints imply equal token streams, hence equal parse results —
// Exact is the key under which the serving layer may reuse parsed plans,
// feature tensors, and cost estimates without changing any response
// byte.
//
// The digest is truncated SHA-256 over an unambiguous rendering of the
// token stream, so it is deterministic across processes and machines
// (no per-process hash seeding). The zero FP is not the fingerprint of
// any lexable input's canonical stream and can serve as an "unset"
// sentinel.
type FP struct {
	Exact [16]byte
}

// Canonical-stream framing bytes. Identifier and punctuation tokens are
// copied verbatim into the template stream; neither token class can
// contain tokSep (identifier bytes satisfy isIdentPart, punctuation is a
// fixed ASCII set), so terminating every token with tokSep makes the
// stream prefix-free: "a b" and "ab" render differently.
const (
	tokSep  = 0x00 // terminates every template-stream token
	litMark = 0x01 // replaces a literal token in the template stream
)

// Literal classes, the byte each literal leaves in the template scan's
// stream. The class decides how a literal binds (plan.LiteralValue): a
// string, an int64, or a float64.
const (
	classString  = 's'
	classInteger = 'i'
	classDecimal = 'd'
)

// fpScratch is the pooled working state of one fingerprint computation.
type fpScratch struct {
	tmpl []byte // canonical template token stream
	lit  []byte // literal section: kind byte, uvarint length, raw bytes
	ex   []byte // digest input: uvarint len(tmpl) ++ tmpl ++ lit
	src  []byte // copy buffer for the string entry point

	// template switches canonicalize to the template scan: each literal
	// leaves its class in tmpl and is appended to lits instead of
	// leaving its bytes in lit.
	template bool
	lits     []Literal
}

var fpPool = sync.Pool{New: func() any { return new(fpScratch) }}

// fpScratchMax bounds the capacity retained by pooled scratch buffers so
// one oversized statement cannot pin its high-water mark forever.
const fpScratchMax = 64 << 10

func putFPScratch(s *fpScratch) {
	if cap(s.tmpl) > fpScratchMax || cap(s.lit) > fpScratchMax || cap(s.ex) > fpScratchMax || cap(s.src) > fpScratchMax {
		return
	}
	fpPool.Put(s)
}

// Fingerprint computes the fingerprint of a SQL string. It fails with a
// *SyntaxError exactly when lexing fails (the scanner mirrors the
// lexer's rules byte for byte), so any input the parser accepts is
// fingerprintable. Steady state performs zero heap allocations.
func Fingerprint(sql string) (FP, error) {
	s := fpPool.Get().(*fpScratch)
	s.src = append(s.src[:0], sql...)
	fp, err := fingerprint(s, s.src)
	putFPScratch(s)
	return fp, err
}

// FingerprintBytes is Fingerprint over a byte slice, the zero-copy form
// used by the serving hot path. src is only read during the call.
func FingerprintBytes(src []byte) (FP, error) {
	s := fpPool.Get().(*fpScratch)
	fp, err := fingerprint(s, src)
	putFPScratch(s)
	return fp, err
}

func fingerprint(s *fpScratch, src []byte) (FP, error) {
	s.tmpl, s.lit = s.tmpl[:0], s.lit[:0]
	if err := canonicalize(s, src); err != nil {
		return FP{}, err
	}
	// The template stream's length prefix makes the template/literal
	// boundary unambiguous even though identifier bytes are
	// unconstrained.
	s.ex = binary.AppendUvarint(s.ex[:0], uint64(len(s.tmpl)))
	s.ex = append(s.ex, s.tmpl...)
	s.ex = append(s.ex, s.lit...)
	sum := sha256.Sum256(s.ex)
	var fp FP
	copy(fp.Exact[:], sum[:16])
	return fp, nil
}

// TemplateKey identifies a statement's template: its token stream with
// every literal replaced by its class (string, integer or decimal).
// Statements with one template differ only in their literals' values,
// so they parse to one tree and bind to one plan shape; only the
// literals' constants differ (see featenc.PlanFeat.Rebind). Like
// FP.Exact it is truncated SHA-256, stable across processes.
type TemplateKey [16]byte

// Template scans src with Fingerprint's scanner, so it fails exactly
// when lexing fails, and returns the key of src's template and src's
// literals in lexical order, in lits' storage. Each literal has the
// Kind, Text and Ord that Parse gives it: a string's Text is unescaped,
// and Ord counts from 1. src is only read during the call.
func Template(src []byte, lits []Literal) (TemplateKey, []Literal, error) {
	s := fpPool.Get().(*fpScratch)
	s.tmpl = s.tmpl[:0]
	s.template, s.lits = true, lits[:0]
	err := canonicalize(s, src)
	lits = s.lits
	s.template, s.lits = false, nil
	var key TemplateKey
	if err == nil {
		sum := sha256.Sum256(s.tmpl)
		copy(key[:], sum[:16])
	}
	putFPScratch(s)
	return key, lits, err
}

// canonicalize scans src with the lexer's exact token rules, appending
// the template stream to s.tmpl and the literal section to s.lit (or,
// in the template scan, the literals to s.lits).
func canonicalize(s *fpScratch, src []byte) error {
	pos := 0
	n := len(src)
	for {
		// Whitespace and -- line comments, as lexer.skipSpace.
		for pos < n {
			c := src[pos]
			if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
				pos++
				continue
			}
			if c == '-' && pos+1 < n && src[pos+1] == '-' {
				for pos < n && src[pos] != '\n' {
					pos++
				}
				continue
			}
			break
		}
		if pos >= n {
			return nil
		}
		start := pos
		c := src[pos]
		switch {
		case isIdentStart(rune(c)):
			for pos < n && isIdentPart(rune(src[pos])) {
				pos++
			}
			s.tmpl = append(s.tmpl, src[start:pos]...)
			s.tmpl = append(s.tmpl, tokSep)
			continue
		case c >= '0' && c <= '9':
			sawDot := false
			for pos < n {
				ch := src[pos]
				if ch >= '0' && ch <= '9' {
					pos++
					continue
				}
				if ch == '.' && !sawDot {
					sawDot = true
					pos++
					continue
				}
				break
			}
			if src[pos-1] == '.' {
				return &SyntaxError{Pos: start, Msg: "malformed number " + string(src[start:pos])}
			}
			if s.template {
				appendTemplateLiteral(s, TokenNumber, src[start:pos])
			} else {
				appendLiteral(s, TokenNumber, src[start:pos])
			}
			continue
		case c == '\'':
			pos++ // opening quote
			for {
				if pos >= n {
					return &SyntaxError{Pos: start, Msg: "unterminated string literal"}
				}
				if src[pos] == '\'' {
					if pos+1 < n && src[pos+1] == '\'' {
						pos += 2 // '' is an escaped quote
						continue
					}
					pos++ // closing quote
					break
				}
				pos++
			}
			// Raw source bytes between the quotes ('' left doubled):
			// differently escaped spellings of one value hash apart,
			// which costs at most a duplicate cache entry, never a
			// wrong hit.
			if s.template {
				appendTemplateLiteral(s, TokenString, src[start+1:pos-1])
			} else {
				appendLiteral(s, TokenString, src[start+1:pos-1])
			}
			continue
		}
		// Punctuation, two-character operators first (as the lexer).
		if pos+1 < n {
			d := src[pos+1]
			if (c == '<' && (d == '>' || d == '=')) || (c == '>' && d == '=') || (c == '!' && d == '=') {
				pos += 2
				s.tmpl = append(s.tmpl, c, d, tokSep)
				continue
			}
		}
		switch c {
		case '(', ')', ',', '.', ';', '=', '<', '>', '*', '+', '-', '/':
			pos++
			s.tmpl = append(s.tmpl, c, tokSep)
			continue
		}
		return &SyntaxError{Pos: start, Msg: "unexpected character " + string(rune(c))}
	}
}

// appendLiteral records one literal: a placeholder in the template
// stream, kind + length-prefixed bytes in the literal section. raw is
// a number's text, or a string's bytes between its quotes. It stays
// small enough to inline into canonicalize: fingerprinting is the
// estimate-cache hit path.
func appendLiteral(s *fpScratch, kind TokenKind, raw []byte) {
	s.tmpl = append(s.tmpl, litMark, tokSep)
	s.lit = append(s.lit, byte(kind))
	s.lit = binary.AppendUvarint(s.lit, uint64(len(raw)))
	s.lit = append(s.lit, raw...)
}

// appendTemplateLiteral is appendLiteral in the template scan: the
// literal's class goes into the template stream, and the literal, as
// the lexer reads it, onto s.lits.
func appendTemplateLiteral(s *fpScratch, kind TokenKind, raw []byte) {
	l := Literal{Kind: LitNumber, Text: string(raw), Ord: len(s.lits) + 1}
	class := byte(classInteger)
	switch {
	case kind == TokenString:
		l.Kind, class = LitString, classString
		if bytes.IndexByte(raw, '\'') >= 0 {
			// Quotes inside a string come in escaped pairs: '' is one '.
			l.Text = strings.ReplaceAll(l.Text, "''", "'")
		}
	case bytes.IndexByte(raw, '.') >= 0:
		class = classDecimal
	}
	s.tmpl = append(s.tmpl, litMark, class, tokSep)
	s.lits = append(s.lits, l)
}
