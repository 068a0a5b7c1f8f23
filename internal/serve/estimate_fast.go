package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"autoview/internal/featenc"
	"autoview/internal/plan"
	"autoview/internal/sqlparse"
)

// This file is the pooled fast path of POST /v1/estimate: a reusable
// request scratch, a zero-copy reader/decoder for the estimate envelope,
// and the plan-resolution step that consults the plan cache. The decoder
// accepts, rejects and decodes what the strict encoding/json
// configuration it replaced (DisallowUnknownFields + the dec.More()
// trailing-data check) does, which FuzzEstimateDecode checks: field
// names matched under simple case folding, unknown fields rejected, null
// leaving a value as it is, the last duplicate key winning, full escape
// processing, invalid UTF-8 decoded to U+FFFD. Query/view byte slices
// alias the pooled body buffer (or its spill buffer), so nothing derived
// from them may outlive the request unless explicitly copied
// (plan.Parse on the miss path gets a string copy).

// rawPair is one decoded (query, view) pair; both slices alias the
// request body buffer (escape sequences are unescaped in place) or, for
// a string with invalid UTF-8, the spill buffer.
type rawPair struct {
	query, view []byte
}

// estScratch carries every per-request buffer of the estimate path.
type estScratch struct {
	body    []byte
	spill   []byte // strings that decode longer than their source
	pairs   []rawPair
	keys    []cacheKey // estimate-cache key per pair
	qKeys   []cacheKey // plan-cache key of each pair's query
	vKeys   []cacheKey // plan-cache key of each pair's view
	keyOK   []bool     // both SQL texts of the pair were fingerprintable
	ents    []estEntry // final estimates and their text, cache hits filled in place
	missIdx []int      // indices into pairs that missed the estimate cache
	missOut []float64  // PredictBatch output for the miss subset
	fs      []featenc.Features
	lits    []sqlparse.Literal // the template scan's literals, one text at a time
	reply   []byte             // the reply, appended by appendEstimateReply

	// ex amortizes feature extraction on the miss path: per-table schema
	// keywords and stats memoized across pairs and requests, per-pair
	// slices carved from reused backing arrays. Reset per request; the
	// Features in fs alias its buffers, which is safe because a pooled
	// scratch is only recycled after its request (and so its PredictBatch)
	// completed.
	ex *featenc.BatchExtractor
}

var estPool = sync.Pool{New: func() any { return new(estScratch) }}

// estScratchMaxBody bounds the body and spill capacity retained by
// pooled scratch so one oversized request cannot pin its high-water mark
// forever.
const estScratchMaxBody = 256 << 10

func getEstScratch() *estScratch { return estPool.Get().(*estScratch) }

// putEstScratch returns a scratch to the pool once its request has
// answered.
func putEstScratch(sc *estScratch) {
	if cap(sc.body) > estScratchMaxBody {
		sc.body = nil
	}
	if cap(sc.spill) > estScratchMaxBody {
		sc.spill = nil
	}
	if cap(sc.reply) > estScratchMaxBody {
		sc.reply = nil
	}
	estPool.Put(sc)
}

// reset sizes every per-pair slice for n pairs.
func (sc *estScratch) reset(n int) {
	if cap(sc.keys) < n {
		sc.keys = make([]cacheKey, n)
		sc.qKeys = make([]cacheKey, n)
		sc.vKeys = make([]cacheKey, n)
		sc.keyOK = make([]bool, n)
		sc.ents = make([]estEntry, n)
		sc.missOut = make([]float64, n)
		sc.fs = make([]featenc.Features, n)
		sc.missIdx = make([]int, 0, n)
	}
	sc.keys = sc.keys[:n]
	sc.qKeys = sc.qKeys[:n]
	sc.vKeys = sc.vKeys[:n]
	sc.keyOK = sc.keyOK[:n]
	for i := range sc.keyOK {
		sc.keyOK[i] = false
	}
	sc.ents = sc.ents[:n]
	sc.missIdx = sc.missIdx[:0]
}

// readBody drains the request body into the pooled buffer, bounded by
// MaxBodyBytes (the returned error is *http.MaxBytesError past the
// limit, exactly as the json.Decoder path surfaced it).
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, sc *estScratch) error {
	rd := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	buf := sc.body[:0]
	if cap(buf) == 0 {
		buf = make([]byte, 0, 4096)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := rd.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			sc.body = buf
			return nil
		}
		if err != nil {
			sc.body = buf
			return err
		}
	}
}

// planKey widens a 16-byte digest, an exact fingerprint or a template
// key, to the cache key width (upper half zero).
func planKey(exact [16]byte) cacheKey {
	var k cacheKey
	copy(k[:16], exact[:])
	return k
}

// pairKey is the estimate-cache key: exact query digest ++ exact view
// digest.
func pairKey(q, v [16]byte) cacheKey {
	var k cacheKey
	copy(k[:16], q[:])
	copy(k[16:], v[:])
	return k
}

// resolvePlan returns the plan-local features of one SQL text. For a
// fingerprintable text (keyOK) it probes, in order:
//
//   - the plan cache, under the text's exact fingerprint (key);
//   - the template cache, re-binding a known template's features to the
//     text's literals (featenc.PlanFeat.Rebind) and caching the result
//     under key;
//   - neither: it parses and precomputes, caching the result under key
//     and under the text's template.
//
// A template hit whose literal does not bind (an integer past int64)
// falls through to the parse, so its error is the parse path's. sql
// aliases the pooled request body, so the parse path works on a string
// copy (parsed plans hold substrings of their source); the template
// scan copies each literal's text.
func (s *Server) resolvePlan(sql []byte, key cacheKey, keyOK bool, sc *estScratch) (*featenc.PlanFeat, error) {
	var tk cacheKey
	tmplOK := false
	if keyOK {
		if pf, ok := s.planCache.get(key); ok {
			return pf, nil
		}
		if s.tmplCache != nil {
			t, lits, err := sqlparse.Template(sql, sc.lits)
			sc.lits = lits
			if err == nil {
				tk, tmplOK = planKey(t), true
				if tpf, ok := s.tmplCache.get(tk); ok {
					if pf, err := tpf.Rebind(lits); err == nil {
						s.planCache.put(key, pf)
						return pf, nil
					}
				}
			}
		}
	}
	n, err := plan.Parse(string(sql), s.adv.Cat)
	if err != nil {
		return nil, err
	}
	pf := featenc.Precompute(n)
	if keyOK {
		s.planCache.put(key, pf)
	}
	if tmplOK {
		s.tmplCache.put(tk, pf)
	}
	return pf, nil
}

// --- zero-copy envelope decoder ----------------------------------------

// jsonSyntaxError distinguishes malformed JSON from other failures; the
// message is what lands in the bad_json error envelope.
type jsonSyntaxError struct{ msg string }

func (e *jsonSyntaxError) Error() string { return e.msg }

func jsonErrf(format string, args ...any) error {
	return &jsonSyntaxError{msg: fmt.Sprintf(format, args...)}
}

var errTrailingData = &jsonSyntaxError{msg: "trailing data after JSON body"}

type jsonScanner struct {
	b     []byte
	pos   int
	spill []byte // decoded strings that could not be decoded in place
	// seen counts the pairs decoded since "pairs" last held null or [];
	// sc.pairs[:seen] holds the last value decoded at each index.
	seen int
}

func (sn *jsonScanner) skipWS() {
	for sn.pos < len(sn.b) {
		switch sn.b[sn.pos] {
		case ' ', '\t', '\n', '\r':
			sn.pos++
		default:
			return
		}
	}
}

// expect consumes one required byte (after skipping whitespace).
func (sn *jsonScanner) expect(c byte) error {
	sn.skipWS()
	if sn.pos >= len(sn.b) {
		return jsonErrf("unexpected end of JSON input, want %q", c)
	}
	if sn.b[sn.pos] != c {
		return jsonErrf("invalid character %q at offset %d, want %q", sn.b[sn.pos], sn.pos, c)
	}
	sn.pos++
	return nil
}

// tryLiteral consumes lit if it is next (after whitespace).
func (sn *jsonScanner) tryLiteral(lit string) bool {
	sn.skipWS()
	if len(sn.b)-sn.pos < len(lit) || sn.b[sn.pos] != lit[0] || string(sn.b[sn.pos:sn.pos+len(lit)]) != lit {
		return false
	}
	sn.pos += len(lit)
	return true
}

// The string scan works a word at a time: lsb has 0x01 in every byte of
// a uint64, msb 0x80.
const (
	lsb = 0x0101010101010101
	msb = 0x8080808080808080
)

// specialBytes flags, in the high bit of each byte, the bytes of the
// little-endian word w that end a plain run of a JSON string: '"', '\\',
// a control byte below 0x20, and any byte at or above 0x80 (it may start
// invalid UTF-8). Only the lowest flag is exact: a subtraction's borrow
// can flag a byte above a flagged one, never below it.
func specialBytes(w uint64) uint64 {
	q := w ^ (lsb * '"')
	e := w ^ (lsb * '\\')
	return ((q - lsb) | (e - lsb) | (w - lsb*0x20) | w) & msb
}

// plainEnd returns the index of the first byte at or after i that ends a
// plain run, or len(b).
func plainEnd(b []byte, i int) int {
	for ; i+8 <= len(b); i += 8 {
		if m := specialBytes(binary.LittleEndian.Uint64(b[i:])); m != 0 {
			return i + bits.TrailingZeros64(m)>>3
		}
	}
	for ; i < len(b); i++ {
		if c := b[i]; c == '"' || c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
			break
		}
	}
	return i
}

// parseString scans one JSON string, returning its decoded bytes. A
// string with no escape and no invalid UTF-8 is returned as a subslice
// of the scanner buffer; the others are decoded by unescape.
func (sn *jsonScanner) parseString() ([]byte, error) {
	if err := sn.expect('"'); err != nil {
		return nil, err
	}
	b := sn.b
	start := sn.pos
	i := start
	for {
		i = plainEnd(b, i)
		if i == len(b) {
			return nil, jsonErrf("unexpected end of JSON input in string")
		}
		c := b[i]
		if c == '"' {
			sn.pos = i + 1
			return b[start:i], nil
		}
		if c >= utf8.RuneSelf {
			if r, n := utf8.DecodeRune(b[i:]); r != utf8.RuneError || n > 1 {
				i += n // valid UTF-8
				continue
			}
		}
		return sn.unescape(start, i)
	}
}

// unescapes maps each one-byte escape's letter to the byte it stands for.
var unescapes = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// unescape decodes the rest of a string whose bytes b[start:i] are plain
// and whose byte b[i] is not. It writes the decoded form in place, behind
// the read cursor (no escape is shorter than what it decodes to), until
// an invalid UTF-8 byte, which decodes to the three bytes of U+FFFD as in
// encoding/json and could overtake the cursor: from there on the string
// is decoded into sn.spill. Plain runs move with one copy each.
func (sn *jsonScanner) unescape(start, i int) ([]byte, error) {
	b := sn.b
	out := b[start:i]
	spilled := -1 // out's offset in sn.spill, once the string moved there
	for {
		j := plainEnd(b, i)
		out = append(out, b[i:j]...)
		i = j
		if i == len(b) {
			return nil, jsonErrf("unexpected end of JSON input in string")
		}
		switch c := b[i]; {
		case c == '"':
			sn.pos = i + 1
			if spilled < 0 {
				return out, nil
			}
			sn.spill = out
			return out[spilled:], nil
		case c == '\\':
			i++
			if i == len(b) {
				return nil, jsonErrf("unexpected end of JSON input in string escape")
			}
			if u := unescapes[b[i]]; u != 0 {
				out = append(out, u)
				i++
				continue
			}
			if b[i] != 'u' {
				return nil, jsonErrf("invalid escape character %q in string", b[i])
			}
			r, ok := hex4(b, i+1)
			if !ok {
				return nil, jsonErrf("invalid \\u escape at offset %d", i)
			}
			i += 5
			if utf16.IsSurrogate(r) {
				// A high surrogate pairs with an immediately following
				// \uXXXX low surrogate; anything else decodes to U+FFFD,
				// as encoding/json does.
				r2 := rune(utf8.RuneError)
				if i+1 < len(b) && b[i] == '\\' && b[i+1] == 'u' {
					if lo, ok2 := hex4(b, i+2); ok2 {
						if dec := utf16.DecodeRune(r, lo); dec != utf8.RuneError {
							r2 = dec
							i += 6
						}
					}
				}
				r = r2
			}
			out = utf8.AppendRune(out, r)
		case c < 0x20:
			return nil, jsonErrf("invalid control character %q in string", c)
		default: // c >= utf8.RuneSelf
			if r, n := utf8.DecodeRune(b[i:]); r != utf8.RuneError || n > 1 {
				out = append(out, b[i:i+n]...) // valid UTF-8
				i += n
				continue
			}
			// An invalid byte: encoding/json decodes it to U+FFFD.
			if spilled < 0 {
				spilled = len(sn.spill)
				out = append(sn.spill, out...)
			}
			out = utf8.AppendRune(out, utf8.RuneError)
			i++
		}
	}
}

// hex4 decodes the four hex digits at b[at:at+4].
func hex4(b []byte, at int) (rune, bool) {
	if at+4 > len(b) {
		return 0, false
	}
	var r rune
	for _, c := range b[at : at+4] {
		r <<= 4
		switch {
		case c >= '0' && c <= '9':
			r |= rune(c - '0')
		case c >= 'a' && c <= 'f':
			r |= rune(c-'a') + 10
		case c >= 'A' && c <= 'F':
			r |= rune(c-'A') + 10
		default:
			return 0, false
		}
	}
	return r, true
}

// foldEq reports whether the field name b names the field s (lower-case
// ASCII) under encoding/json's rule: equal after simple case folding, so
// "PAIRS" and "pair\u017f" (a long s) both name "pairs".
func foldEq(b []byte, s string) bool {
	i := 0
	for k := 0; k < len(s); k++ {
		if i == len(b) {
			return false
		}
		c := b[i]
		i++
		if c >= utf8.RuneSelf {
			r, n := utf8.DecodeRune(b[i-1:])
			i += n - 1
			if r = foldRune(r); r >= utf8.RuneSelf {
				return false
			}
			c = byte(r)
		}
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != s[k] {
			return false
		}
	}
	return i == len(b)
}

// foldRune is the smallest rune of r's simple case-folding orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// decodeEstimateBody parses {"pairs":[{"query":...,"view":...}]} from
// the pooled body into sc.pairs (aliasing sc.body and sc.spill).
func decodeEstimateBody(body []byte, sc *estScratch) error {
	sc.pairs = sc.pairs[:0]
	sn := &jsonScanner{b: body, spill: sc.spill[:0]}
	err := sn.envelope(sc)
	sc.spill = sn.spill[:0]
	return err
}

func (sn *jsonScanner) envelope(sc *estScratch) error {
	if sn.tryLiteral("null") { // a top-level null leaves the request empty
		return sn.trailing()
	}
	if err := sn.expect('{'); err != nil {
		return err
	}
	sn.skipWS()
	if sn.pos < len(sn.b) && sn.b[sn.pos] == '}' {
		sn.pos++
		return sn.trailing()
	}
	for {
		name, err := sn.parseString()
		if err != nil {
			return err
		}
		if err := sn.expect(':'); err != nil {
			return err
		}
		if !foldEq(name, "pairs") {
			return jsonErrf("unknown field %q", name)
		}
		if err := sn.parsePairs(sc); err != nil {
			return err
		}
		sn.skipWS()
		if sn.pos >= len(sn.b) {
			return jsonErrf("unexpected end of JSON input in object")
		}
		switch sn.b[sn.pos] {
		case ',':
			sn.pos++
		case '}':
			sn.pos++
			return sn.trailing()
		default:
			return jsonErrf("invalid character %q after object field", sn.b[sn.pos])
		}
	}
}

// trailing is the check the json.Decoder path ran via dec.More(): after
// the value, only whitespace, or a byte that would close an enclosing
// array or object, may come next.
func (sn *jsonScanner) trailing() error {
	sn.skipWS()
	if sn.pos != len(sn.b) && sn.b[sn.pos] != ']' && sn.b[sn.pos] != '}' {
		return errTrailingData
	}
	return nil
}

// parsePairs decodes one "pairs" value into sc.pairs. A repeated "pairs"
// key decodes as encoding/json decodes into the slice it already filled:
// the i-th element starts from the last value decoded at index i (since
// null or [] last reset the slice), and each field present, other than
// a null one, replaces its value.
func (sn *jsonScanner) parsePairs(sc *estScratch) error {
	sc.pairs = sc.pairs[:0]
	if sn.tryLiteral("null") {
		sn.seen = 0
		return nil
	}
	if err := sn.expect('['); err != nil {
		return err
	}
	sn.skipWS()
	if sn.pos < len(sn.b) && sn.b[sn.pos] == ']' {
		sn.pos++
		sn.seen = 0
		return nil
	}
	for {
		var p rawPair
		n := len(sc.pairs)
		if n < sn.seen {
			p = sc.pairs[:sn.seen][n]
		}
		if err := sn.parsePair(&p); err != nil {
			return err
		}
		sc.pairs = append(sc.pairs, p)
		sn.seen = max(sn.seen, n+1)
		sn.skipWS()
		if sn.pos >= len(sn.b) {
			return jsonErrf("unexpected end of JSON input in array")
		}
		switch sn.b[sn.pos] {
		case ',':
			sn.pos++
		case ']':
			sn.pos++
			return nil
		default:
			return jsonErrf("invalid character %q after array element", sn.b[sn.pos])
		}
	}
}

// parsePair decodes one pair object (or null, which leaves p as it is)
// into p.
func (sn *jsonScanner) parsePair(p *rawPair) error {
	if sn.tryLiteral("null") {
		return nil
	}
	if err := sn.expect('{'); err != nil {
		return err
	}
	sn.skipWS()
	if sn.pos < len(sn.b) && sn.b[sn.pos] == '}' {
		sn.pos++
		return nil
	}
	for {
		name, err := sn.parseString()
		if err != nil {
			return err
		}
		if err := sn.expect(':'); err != nil {
			return err
		}
		var dst *[]byte
		switch {
		case foldEq(name, "query"):
			dst = &p.query
		case foldEq(name, "view"):
			dst = &p.view
		default:
			return jsonErrf("unknown field %q", name)
		}
		// null keeps the value, as encoding/json does for a string.
		if !sn.tryLiteral("null") {
			if *dst, err = sn.parseString(); err != nil {
				return err
			}
		}
		sn.skipWS()
		if sn.pos >= len(sn.b) {
			return jsonErrf("unexpected end of JSON input in pair object")
		}
		switch sn.b[sn.pos] {
		case ',':
			sn.pos++
		case '}':
			sn.pos++
			return nil
		default:
			return jsonErrf("invalid character %q after pair field", sn.b[sn.pos])
		}
	}
}

// classifyBodyError maps a readBody failure onto the status/code pair
// the json.Decoder path produced.
func classifyBodyError(err error) (int, string, string) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge, "body_too_large",
			fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)
	}
	return http.StatusBadRequest, "bad_json", err.Error()
}
