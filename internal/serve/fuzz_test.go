package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// Native fuzz targets for the two JSON decode paths of the API. The
// property under test: any byte sequence must produce a structured JSON
// response with a documented status code — never a panic (the recorder
// path lets one propagate straight into the fuzz target), a hang, or a
// non-JSON body. Seeds come from the malformed-request table in
// handlers_test.go.

// fuzzServer bootstraps one server per fuzz process; the handler is
// shared by every generated input.
func fuzzServer(f *testing.F) http.Handler {
	f.Helper()
	s, err := New(serveWK(), serveCoreCfgPar(1), Config{
		MaxPairs:     2,
		MaxQueries:   3,
		MaxBodyBytes: 4096,
	})
	if err != nil {
		f.Fatalf("New: %v", err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			f.Errorf("Close: %v", err)
		}
	})
	return s.Handler()
}

// checkResponse asserts the shared envelope invariants for one reply.
func checkResponse(t *testing.T, path string, code int, body []byte, allowed map[int]bool) {
	t.Helper()
	if !allowed[code] {
		t.Fatalf("%s: undocumented status %d (body %q)", path, code, body)
	}
	if !json.Valid(body) {
		t.Fatalf("%s: status %d with non-JSON body %q", path, code, body)
	}
	if code >= 400 {
		var envelope errorResponse
		if err := json.Unmarshal(body, &envelope); err != nil {
			t.Fatalf("%s: error reply is not the structured envelope: %v (%q)", path, err, body)
		}
		if envelope.Error.Code == "" || envelope.Error.Message == "" {
			t.Fatalf("%s: error envelope missing code or message: %q", path, body)
		}
	}
}

// FuzzEstimateDecode also holds the fast envelope decoder to the strict
// encoding/json configuration it replaced (strictDecode): both accept or
// both reject every body, and an accepted body decodes to byte-equal
// pairs. One scratch decodes every input, so a pooled buffer's earlier
// contents must never leak into a later body's pairs. Besides the
// malformed-request table, the seeds are a hot body as json.Marshal
// writes it (every '<' escaped as \u003c), surrogate pairs and lone
// surrogates, invalid UTF-8, encoding/json's quirks (a top-level null,
// a closing byte after the value, null fields and elements, repeated
// "pairs" keys, case-folded names) and, for each of several special
// bytes, a string with it at every offset 0-17, so the word-wide scan
// meets it in each lane of its first two words and in the byte tail.
func FuzzEstimateDecode(f *testing.F) {
	for _, seed := range []string{
		`{"pairs":[`,
		`hello`,
		`{"pairs":"nope"}`,
		`{"pairz":[]}`,
		`{"pairs":[]}{"pairs":[]}`,
		`{"pairs":[]}`,
		`{"pairs":null}`,
		`{"pairs":[{"query":"a","view":"b"},{"query":"a","view":"b"},{"query":"a","view":"b"}]}`,
		`{"pairs":[{"query":"select * frm nowhere","view":"select 1"}]}`,
		`{"pairs":[{"query":` + strings.Repeat(`"`, 60) + `}]}`,
		"\x00\xff\xfe",
		`{"pairs":[{"query":1e999,"view":{}}]}`,
		`{"pairs":[{"query":"\ud83d\ude00","view":"\uD83D\uDE00x"}]}`,
		`{"pairs":[{"query":"\ud83d","view":"\ude00\ud83d\u0041"}]}`,
		`{"pairs":[{"query":"\ud83dx","view":"\ud83d\"}]}`,
		"{\"pairs\":[{\"query\":\"select 'a\xffb' from t\",\"view\":\"\xed\xa0\x80\xc3\"}]}",
		"{\"pairs\":[{\"query\":\"\xef\xbf\xbd\\n\xe2\x82\",\"view\":\"\xf0\x9f\x98\x80\"}]}",
		`null`,
		`null ]`,
		`null]`,
		`{"pairs":[]}]`,
		`{"pairs":[{"query":"a","view":"b"}]} }x`,
		`{"pairs":[null,{"query":"a","query":null,"view":"b"}]}`,
		`{"pairs":[{"query":"a"},{"query":"b"}],"pairs":[{"view":"c"}],"pairs":[null,{"view":"d"},{}]}`,
		`{"pairs":[{"query":"a"}],"pairs":[],"pairs":[{"view":"c"}]}`,
		`{"pairs":[{"query":"a"}],"pairs":null,"pairs":[{"view":"c"}]}`,
		"{\"PAIR\xc5\xbf\":[{\"QUERY\":\"a\",\"View\":\"b\"}]}",
		"{\"pai\xc4\xb0rs\":[]}",
		`{"p\u0061irs":[{"\u0071uery":"a","vie\u0077":"b"}]}`,
	} {
		f.Add(seed)
	}
	body, err := json.Marshal(estimateRequest{Pairs: []estimatePair{
		{Query: "select a from t where t.b < 3 and t.c <> 'x'", View: "select b from t where t.b < 10"}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(body))
	for _, special := range []string{`\n`, `\u003c`, `\ud83d\ude00`, `\"`, "\xff", "\xc3\xa9", "\x1f", `"`} {
		for at := 0; at < 18; at++ {
			text := strings.Repeat("a", at) + special + strings.Repeat("b", 17-at)
			f.Add(`{"pairs":[{"query":"` + text + `","view":"` + text + text + `"}]}`)
		}
	}
	h := fuzzServer(f)
	allowed := map[int]bool{
		http.StatusOK:                    true,
		http.StatusBadRequest:            true,
		http.StatusRequestEntityTooLarge: true,
		http.StatusTooManyRequests:       true,
		http.StatusServiceUnavailable:    true,
		http.StatusGatewayTimeout:        true,
	}
	sc := new(estScratch)
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/estimate", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		checkResponse(t, "/v1/estimate", rec.Code, rec.Body.Bytes(), allowed)

		want, wantErr := strictDecode(body)
		gotErr := decodeEstimateBody([]byte(body), sc)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: fast decoder error %v, encoding/json error %v", body, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if len(sc.pairs) != len(want.Pairs) {
			t.Fatalf("%q: %d pairs, encoding/json %d", body, len(sc.pairs), len(want.Pairs))
		}
		for i, p := range sc.pairs {
			if w := want.Pairs[i]; string(p.query) != w.Query || string(p.view) != w.View {
				t.Fatalf("%q: pair %d = %q, %q; encoding/json %q, %q", body, i, p.query, p.view, w.Query, w.View)
			}
		}
	})
}

// strictDecode is the json.Decoder configuration the estimate decoder
// replaced, as decodeJSON still runs it for the other endpoints.
func strictDecode(body string) (estimateRequest, error) {
	var req estimateRequest
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	if dec.More() {
		return req, errors.New("trailing data after JSON body")
	}
	return req, nil
}

func FuzzAdviseDecode(f *testing.F) {
	for _, seed := range []string{
		`{"force":"yes"}`,
		`{"forse":true}`,
		`{"force"`,
		`{"force":true}{"force":true}`,
		`null`,
		`[]`,
		"\x00\xff\xfe",
		`{"force":1}`,
	} {
		f.Add(seed)
	}
	h := fuzzServer(f)
	allowed := map[int]bool{
		http.StatusOK:                    true,
		http.StatusBadRequest:            true,
		http.StatusConflict:              true,
		http.StatusRequestEntityTooLarge: true,
		http.StatusServiceUnavailable:    true,
		http.StatusGatewayTimeout:        true,
		http.StatusInternalServerError:   true,
	}
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/advise", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		checkResponse(t, "/v1/advise", rec.Code, rec.Body.Bytes(), allowed)
	})
}
