package serve

import (
	"context"
	"encoding/json"
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
	} {
		f.Add(seed)
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
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/estimate", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		checkResponse(t, "/v1/estimate", rec.Code, rec.Body.Bytes(), allowed)
	})
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
