package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"testing"
)

// jsonFloatCases are the float64s where encoding/json's formatting
// turns: signed zeros, subnormals, the 'f'/'e' boundaries at 1e-6 and
// 1e21 and their neighbours, one-digit negative exponents, the largest
// and the widest values.
func jsonFloatCases() []float64 {
	cases := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 100, 1e20, 123456789012345678901,
		5e-324, -5e-324, math.SmallestNonzeroFloat64 * 3, 2.2250738585072014e-308, 2.225073858507201e-308,
		1e-6, 1e-7, 1e-9, 1e-10, 1e21, 1e22, math.MaxFloat64, -math.MaxFloat64,
		1.2345678901234567e-6, -1.2345678901234567e-6, 9.999999999999999e20, 0.30000000000000004}
	for _, edge := range []float64{1e-6, 1e21, 1e-7, 1e-5, 1e-10} {
		for _, dir := range []float64{0, math.Inf(1)} {
			v := edge
			for k := 0; k < 4; k++ {
				v = math.Nextafter(v, dir)
				cases = append(cases, v, -v)
			}
		}
	}
	return cases
}

// TestAppendJSONFloat: appendJSONFloat writes what json.Marshal writes
// for every finite float64 tried — the edge cases above, 200,000
// random bit patterns (every exponent, subnormals included) and random
// values spread over the decades around the format switches — and never
// more than maxFloatText bytes.
func TestAppendJSONFloat(t *testing.T) {
	check := func(f float64) {
		t.Helper()
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatalf("json.Marshal(%v): %v", f, err)
		}
		got := appendJSONFloat(nil, f)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendJSONFloat(%v) = %s, json.Marshal = %s", f, got, want)
		}
		if len(got) > maxFloatText {
			t.Fatalf("appendJSONFloat(%v) = %s: %d bytes, more than maxFloatText %d", f, got, len(got), maxFloatText)
		}
		if e := newEstEntry(f); e.v != f || !bytes.Equal(e.text[:e.n], want) {
			t.Fatalf("newEstEntry(%v) = %v %q", f, e.v, e.text[:e.n])
		}
	}
	for _, f := range jsonFloatCases() {
		check(f)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	for i := 0; i < n; i++ {
		if f := math.Float64frombits(rng.Uint64()); finite(f) {
			check(f)
		}
		// A random mantissa in a random decade from 1e-12 to 1e25.
		check(rng.Float64() * math.Pow(10, float64(rng.IntN(38)-12)))
	}
}

// TestAppendEstimateReply: the hand-written reply is, byte for byte,
// what writeJSON's encoding/json writes for the same estimateResponse,
// for one estimate and many, of either sign and any model version.
func TestAppendEstimateReply(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	s := &Server{}
	for _, n := range []int{1, 2, 7, 64} {
		for _, version := range []int{0, 1, 12345} {
			vals := make([]float64, n)
			ents := make([]estEntry, n)
			for i := range vals {
				vals[i] = (rng.Float64() - 0.3) * math.Pow(10, float64(rng.IntN(30)-8))
				ents[i] = newEstEntry(vals[i])
			}
			rec := httptest.NewRecorder()
			s.writeJSON(rec, http.StatusOK, estimateResponse{Estimates: vals, Count: n, ModelVersion: version})
			if got := appendEstimateReply(nil, ents, version); !bytes.Equal(got, rec.Body.Bytes()) {
				t.Fatalf("%d estimates, version %d:\n got %s\nwant %s", n, version, got, rec.Body.Bytes())
			}
		}
	}
}

// TestNonFiniteEstimateAnswers500: a checkpoint reloaded with the
// smallest subnormal as its cost scale makes every estimate overflow to
// ±Inf, which JSON cannot carry. The request must answer 500
// non_finite_estimate in the error envelope, every time (the estimate is
// never cached), and the server must answer finite estimates again
// after a reload with a sane scale.
func TestNonFiniteEstimateAnswers500(t *testing.T) {
	s, ts := newTestServer(t, 2, Config{})
	w := serveWK()
	cur := s.gen.Load()
	path := t.TempDir() + "/wd.ckpt"
	if err := saveModel(cur.m, path); err != nil {
		t.Fatal(err)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/admin/model", reloadRequest{Path: path, Scale: 5e-324}); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: status %d: %s", resp.StatusCode, body)
	}
	body := mustJSON(t, estimateRequest{Pairs: []estimatePair{{Query: w.Queries[0].SQL, View: cur.views.Views[0].SQL}}})
	for k := 0; k < 3; k++ {
		status, got := postRaw(t, ts.URL+"/v1/estimate", body)
		var env errorResponse
		if err := json.Unmarshal(got, &env); status != http.StatusInternalServerError || err != nil || env.Error.Code != "non_finite_estimate" {
			t.Fatalf("send %d: %d %q, want 500 non_finite_estimate", k+1, status, got)
		}
	}
	if n := s.gen.Load().est.len(); n != 0 {
		t.Fatalf("%d estimates cached under the overflowing scale, want 0", n)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/admin/model", reloadRequest{Path: path, Scale: cur.scale}); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: status %d: %s", resp.StatusCode, body)
	}
	if status, got := postRaw(t, ts.URL+"/v1/estimate", body); status != http.StatusOK {
		t.Fatalf("after a sane reload: %d %s", status, got)
	}
}
