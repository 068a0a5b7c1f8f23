package sqlparse

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"
)

// FP is the canonical fingerprint of one SQL text, computed at the
// lexical level (no parse, no catalog binding) so the serving hot path
// can identify repeated queries before doing any per-request work.
//
// Two digests are derived from one token scan:
//
//   - Template is literal-normalized: every number and string literal is
//     replaced by a placeholder before hashing, so queries that differ
//     only in literal values — the dominant shape of production
//     template traffic — share a Template. Whitespace and -- comments
//     never contribute.
//   - Exact extends Template with the literal values (kind plus raw
//     bytes, length-prefixed, in source order). Equal Exact fingerprints
//     imply equal token streams, hence equal parse results — Exact is
//     the key under which the serving layer may reuse parsed plans,
//     feature tensors, and cost estimates without changing any response
//     byte.
//
// Both digests are truncated SHA-256 over an unambiguous rendering of
// the token stream, so they are deterministic across processes and
// machines (no per-process hash seeding). The zero FP is not the
// fingerprint of any lexable input's canonical stream and can serve as
// an "unset" sentinel.
type FP struct {
	Template [16]byte
	Exact    [16]byte
}

// ExactHex renders the exact digest for logs and spans.
func (f FP) ExactHex() string { return hex.EncodeToString(f.Exact[:]) }

// Canonical-stream framing bytes. Identifier and punctuation tokens are
// copied verbatim into the template stream; neither token class can
// contain tokSep (identifier bytes satisfy isIdentPart, punctuation is a
// fixed ASCII set), so terminating every token with tokSep makes the
// stream prefix-free: "a b" and "ab" render differently.
const (
	tokSep  = 0x00 // terminates every template-stream token
	litMark = 0x01 // replaces a literal token in the template stream
)

// fpScratch is the pooled working state of one fingerprint computation.
type fpScratch struct {
	tmpl []byte // canonical template token stream
	lit  []byte // literal section: kind byte, uvarint length, raw bytes
	ex   []byte // exact digest input: template digest ++ literal section
	src  []byte // copy buffer for the string entry point
}

var fpPool = sync.Pool{New: func() any { return new(fpScratch) }}

// fpScratchMax bounds the capacity retained by pooled scratch buffers so
// one oversized statement cannot pin its high-water mark forever.
const fpScratchMax = 64 << 10

func putFPScratch(s *fpScratch) {
	if cap(s.tmpl) > fpScratchMax || cap(s.lit) > fpScratchMax || cap(s.src) > fpScratchMax {
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
	var fp FP
	sum := sha256.Sum256(s.tmpl)
	copy(fp.Template[:], sum[:16])
	// The exact stream prefixes the fixed-width template digest, so the
	// template/literal boundary is unambiguous even though identifier
	// bytes are unconstrained.
	s.ex = append(s.ex[:0], fp.Template[:]...)
	s.ex = append(s.ex, s.lit...)
	sum = sha256.Sum256(s.ex)
	copy(fp.Exact[:], sum[:16])
	return fp, nil
}

// canonicalize scans src with the lexer's exact token rules, appending
// the template stream to s.tmpl and the literal section to s.lit.
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
			appendLiteral(s, TokenNumber, src[start:pos])
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
			appendLiteral(s, TokenString, src[start+1:pos-1])
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
// stream, kind + length-prefixed bytes in the literal section.
func appendLiteral(s *fpScratch, kind TokenKind, raw []byte) {
	s.tmpl = append(s.tmpl, litMark, tokSep)
	s.lit = append(s.lit, byte(kind))
	s.lit = binary.AppendUvarint(s.lit, uint64(len(raw)))
	s.lit = append(s.lit, raw...)
}
