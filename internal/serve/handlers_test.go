package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestServeMalformedRequests is the fuzz-style decoder table: every bad
// payload must come back as a structured JSON error with the documented
// status and code, never a panic, hang, or bare 500.
func TestServeMalformedRequests(t *testing.T) {
	_, ts := newTestServer(t, 1, Config{
		MaxPairs:     2,
		MaxQueries:   3,
		MaxBodyBytes: 512,
	})

	huge := `{"pairs":[{"query":"` + strings.Repeat("x", 600) + `","view":"y"}]}`
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"estimate wrong method", http.MethodGet, "/v1/estimate", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"estimate truncated json", http.MethodPost, "/v1/estimate", `{"pairs":[`, http.StatusBadRequest, "bad_json"},
		{"estimate not json", http.MethodPost, "/v1/estimate", `hello`, http.StatusBadRequest, "bad_json"},
		{"estimate wrong type", http.MethodPost, "/v1/estimate", `{"pairs":"nope"}`, http.StatusBadRequest, "bad_json"},
		{"estimate unknown field", http.MethodPost, "/v1/estimate", `{"pairz":[]}`, http.StatusBadRequest, "bad_json"},
		{"estimate trailing data", http.MethodPost, "/v1/estimate", `{"pairs":[]}{"pairs":[]}`, http.StatusBadRequest, "bad_json"},
		{"estimate empty pairs", http.MethodPost, "/v1/estimate", `{"pairs":[]}`, http.StatusBadRequest, "empty_request"},
		{"estimate null pairs", http.MethodPost, "/v1/estimate", `{"pairs":null}`, http.StatusBadRequest, "empty_request"},
		{"estimate too many pairs", http.MethodPost, "/v1/estimate",
			`{"pairs":[{"query":"a","view":"b"},{"query":"a","view":"b"},{"query":"a","view":"b"}]}`,
			http.StatusBadRequest, "too_many_pairs"},
		{"estimate bad query sql", http.MethodPost, "/v1/estimate",
			`{"pairs":[{"query":"select * frm nowhere","view":"select 1"}]}`,
			http.StatusBadRequest, "bad_sql"},
		{"estimate oversized body", http.MethodPost, "/v1/estimate", huge, http.StatusRequestEntityTooLarge, "body_too_large"},
		{"queries wrong method", http.MethodGet, "/v1/queries", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"queries bad json", http.MethodPost, "/v1/queries", `[]`, http.StatusBadRequest, "bad_json"},
		{"queries empty", http.MethodPost, "/v1/queries", `{"queries":[]}`, http.StatusBadRequest, "empty_request"},
		{"queries too many", http.MethodPost, "/v1/queries", `{"queries":["a","b","c","d"]}`, http.StatusBadRequest, "too_many_queries"},
		{"queries bad sql", http.MethodPost, "/v1/queries", `{"queries":["select * from no_such_table"]}`, http.StatusBadRequest, "bad_sql"},
		{"advise wrong method", http.MethodGet, "/v1/advise", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"advise bad json", http.MethodPost, "/v1/advise", `{"force":"yes"}`, http.StatusBadRequest, "bad_json"},
		{"advise unknown field", http.MethodPost, "/v1/advise", `{"forse":true}`, http.StatusBadRequest, "bad_json"},
		{"views wrong method", http.MethodPost, "/v1/views", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"healthz wrong method", http.MethodPost, "/v1/healthz", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"reload wrong method", http.MethodGet, "/v1/admin/model", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"reload empty path", http.MethodPost, "/v1/admin/model", `{"path":""}`, http.StatusBadRequest, "empty_request"},
		{"reload negative scale", http.MethodPost, "/v1/admin/model", `{"path":"x","scale":-1}`, http.StatusBadRequest, "bad_scale"},
		{"reload missing file", http.MethodPost, "/v1/admin/model", `{"path":"/no/such/checkpoint"}`, http.StatusBadRequest, "model_load_failed"},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader([]byte(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			var envelope errorResponse
			if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
				t.Fatalf("error body is not the structured envelope: %v", err)
			}
			if envelope.Error.Code != tc.wantCode {
				t.Fatalf("code %q, want %q (message %q)", envelope.Error.Code, tc.wantCode, envelope.Error.Message)
			}
			if envelope.Error.Message == "" {
				t.Fatal("empty error message")
			}
		})
	}
}
