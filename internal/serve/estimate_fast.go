package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"autoview/internal/featenc"
	"autoview/internal/plan"
)

// This file is the pooled fast path of POST /v1/estimate: a reusable
// request scratch, a zero-copy reader/decoder for the estimate envelope,
// and the plan-resolution step that consults the plan cache. The decoder
// replicates the observable semantics of the strict encoding/json
// configuration it replaced (DisallowUnknownFields + trailing-data
// check): case-insensitive field names, unknown fields rejected, null
// mapped to the zero value, last duplicate key wins, full escape
// processing. Query/view byte slices alias the pooled body buffer, so
// nothing derived from them may outlive the request unless explicitly
// copied (plan.Parse on the miss path gets a string copy).

// rawPair is one decoded (query, view) pair; both slices alias the
// request body buffer (escape sequences are unescaped in place).
type rawPair struct {
	query, view []byte
}

// estScratch carries every per-request buffer of the estimate path.
type estScratch struct {
	body    []byte
	pairs   []rawPair
	keys    []cacheKey // estimate-cache key per pair
	qKeys   []cacheKey // plan-cache key of each pair's query
	vKeys   []cacheKey // plan-cache key of each pair's view
	keyOK   []bool     // both SQL texts of the pair were fingerprintable
	out     []float64  // final estimates, cache hits filled in place
	missIdx []int      // indices into pairs that missed the estimate cache
	missOut []float64  // PredictBatch output for the miss subset
	fs      []featenc.Features

	// ex amortizes feature extraction on the miss path: per-table schema
	// keywords and stats memoized across pairs and requests, per-pair
	// slices carved from reused backing arrays. Reset per request; the
	// Features in fs alias its buffers, which is safe because a pooled
	// scratch is only recycled after its request (and so its PredictBatch)
	// completed.
	ex *featenc.BatchExtractor
}

var estPool = sync.Pool{New: func() any { return new(estScratch) }}

// estScratchMaxBody bounds the body capacity retained by pooled scratch
// so one oversized request cannot pin its high-water mark forever.
const estScratchMaxBody = 256 << 10

func getEstScratch() *estScratch { return estPool.Get().(*estScratch) }

// putEstScratch returns a scratch to the pool once its request has
// answered.
func putEstScratch(sc *estScratch) {
	if cap(sc.body) > estScratchMaxBody {
		sc.body = nil
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
		sc.out = make([]float64, n)
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
	sc.out = sc.out[:n]
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

// planEntry is a plan-cache value: one parsed plan plus its precomputed
// plan-local features. Immutable once cached.
type planEntry struct {
	node *plan.Node
	pf   *featenc.PlanFeat
}

// planKey widens a 16-byte exact fingerprint digest to the cache key
// width (upper half zero).
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

// resolvePlan returns the parsed plan + precomputed features for one SQL
// text, consulting the plan cache when the text is fingerprintable. sql
// aliases the pooled request body, so the parse path works on a string
// copy (parsed plans hold substrings of their source).
func (s *Server) resolvePlan(sql []byte, key cacheKey, keyOK bool) (*planEntry, error) {
	if keyOK {
		if e, ok := s.planCache.get(key); ok {
			return e, nil
		}
	}
	n, err := plan.Parse(string(sql), s.adv.Cat)
	if err != nil {
		return nil, err
	}
	e := &planEntry{node: n, pf: featenc.Precompute(n)}
	if keyOK {
		s.planCache.put(key, e)
	}
	return e, nil
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
	b   []byte
	pos int
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
	if len(sn.b)-sn.pos < len(lit) || string(sn.b[sn.pos:sn.pos+len(lit)]) != lit {
		return false
	}
	sn.pos += len(lit)
	return true
}

// parseString scans one JSON string, returning its decoded bytes. The
// result aliases the scanner buffer: escape-free strings are returned as
// a direct subslice, escaped ones are unescaped in place (the decoded
// form is never longer than its source, and the write cursor never
// overtakes the read cursor).
func (sn *jsonScanner) parseString() ([]byte, error) {
	if err := sn.expect('"'); err != nil {
		return nil, err
	}
	b := sn.b
	start := sn.pos
	i := sn.pos
	for i < len(b) {
		c := b[i]
		if c == '"' {
			sn.pos = i + 1
			return b[start:i], nil
		}
		if c == '\\' {
			break
		}
		if c < 0x20 {
			return nil, jsonErrf("invalid control character %q in string", c)
		}
		i++
	}
	w := i
	for i < len(b) {
		c := b[i]
		switch {
		case c == '"':
			sn.pos = i + 1
			return b[start:w], nil
		case c == '\\':
			i++
			if i >= len(b) {
				return nil, jsonErrf("unexpected end of JSON input in string escape")
			}
			switch b[i] {
			case '"', '\\', '/':
				b[w] = b[i]
				w++
				i++
			case 'b':
				b[w] = '\b'
				w++
				i++
			case 'f':
				b[w] = '\f'
				w++
				i++
			case 'n':
				b[w] = '\n'
				w++
				i++
			case 'r':
				b[w] = '\r'
				w++
				i++
			case 't':
				b[w] = '\t'
				w++
				i++
			case 'u':
				r, ok := hex4(b, i+1)
				if !ok {
					return nil, jsonErrf("invalid \\u escape at offset %d", i)
				}
				i += 5
				if utf16.IsSurrogate(r) {
					// A high surrogate pairs with an immediately
					// following \uXXXX low surrogate; anything else
					// decodes to U+FFFD, as encoding/json does.
					r2 := rune(utf8.RuneError)
					if i+1 < len(b) && b[i] == '\\' && b[i+1] == 'u' {
						if lo, ok2 := hex4(b, i+2); ok2 {
							if dec := utf16.DecodeRune(r, lo); dec != utf8.RuneError {
								r2 = dec
								i += 6
							}
						}
					}
					if r2 == utf8.RuneError {
						r = utf8.RuneError
					} else {
						r = r2
					}
				}
				w += utf8.EncodeRune(b[w:w+4], r)
			default:
				return nil, jsonErrf("invalid escape character %q in string", b[i])
			}
		case c < 0x20:
			return nil, jsonErrf("invalid control character %q in string", c)
		default:
			b[w] = c
			w++
			i++
		}
	}
	return nil, jsonErrf("unexpected end of JSON input in string")
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

// foldEq reports ASCII-case-insensitive equality with s (the
// encoding/json field-matching rule for the fields used here).
func foldEq(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c, d := b[i], s[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != d {
			return false
		}
	}
	return true
}

// decodeEstimateBody parses {"pairs":[{"query":...,"view":...}]} from
// the pooled body into sc.pairs (aliasing sc.body).
func decodeEstimateBody(body []byte, sc *estScratch) error {
	sc.pairs = sc.pairs[:0]
	sn := &jsonScanner{b: body}
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
		// Duplicate "pairs" keys: the last one wins, so each occurrence
		// re-decodes from scratch.
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

// trailing enforces the trailing-data check the json.Decoder path ran
// via dec.More().
func (sn *jsonScanner) trailing() error {
	sn.skipWS()
	if sn.pos != len(sn.b) {
		return errTrailingData
	}
	return nil
}

func (sn *jsonScanner) parsePairs(sc *estScratch) error {
	sc.pairs = sc.pairs[:0]
	if sn.tryLiteral("null") {
		return nil
	}
	if err := sn.expect('['); err != nil {
		return err
	}
	sn.skipWS()
	if sn.pos < len(sn.b) && sn.b[sn.pos] == ']' {
		sn.pos++
		return nil
	}
	for {
		p, err := sn.parsePair()
		if err != nil {
			return err
		}
		sc.pairs = append(sc.pairs, p)
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

func (sn *jsonScanner) parsePair() (rawPair, error) {
	var p rawPair
	if err := sn.expect('{'); err != nil {
		return p, err
	}
	sn.skipWS()
	if sn.pos < len(sn.b) && sn.b[sn.pos] == '}' {
		sn.pos++
		return p, nil
	}
	for {
		name, err := sn.parseString()
		if err != nil {
			return p, err
		}
		if err := sn.expect(':'); err != nil {
			return p, err
		}
		var val []byte
		if sn.tryLiteral("null") {
			val = nil // null keeps the zero value, as encoding/json does
		} else if val, err = sn.parseString(); err != nil {
			return p, err
		}
		switch {
		case foldEq(name, "query"):
			p.query = val
		case foldEq(name, "view"):
			p.view = val
		default:
			return p, jsonErrf("unknown field %q", name)
		}
		sn.skipWS()
		if sn.pos >= len(sn.b) {
			return p, jsonErrf("unexpected end of JSON input in pair object")
		}
		switch sn.b[sn.pos] {
		case ',':
			sn.pos++
		case '}':
			sn.pos++
			return p, nil
		default:
			return p, jsonErrf("invalid character %q after pair field", sn.b[sn.pos])
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
