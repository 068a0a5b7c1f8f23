package serve

import (
	"math"
	"net/http"
	"strconv"

	"autoview/internal/obs"
)

// The /v1/estimate reply is written by hand: the bytes encoding/json
// writes for an estimateResponse, appended into the request scratch and
// sent with one Write. Each estimate is formatted once, when the model
// computes it, and its text is cached with it, so a cache hit copies
// bytes and formats nothing.

// maxFloatText bounds appendJSONFloat's output for a finite float64: a
// sign, "0.", five zeros and 17 significant digits (|f| just above
// 1e-6); the 'e' form takes at most 24 bytes and the integral 'f' form
// at most 22.
const maxFloatText = 25

// estEntry is one estimate-cache value: the estimate and its reply text.
type estEntry struct {
	v    float64
	n    uint8
	text [maxFloatText]byte
}

// newEstEntry formats the finite estimate v.
func newEstEntry(v float64) estEntry {
	e := estEntry{v: v}
	e.n = uint8(len(appendJSONFloat(e.text[:0], v)))
	return e
}

// finite reports whether v can be written as a JSON number.
func finite(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }

// appendJSONFloat appends the finite f as encoding/json writes a
// float64: the shortest digits that round-trip, in 'f' form unless
// |f| < 1e-6 or |f| >= 1e21, and a negative exponent below ten written
// with one digit (1e-7, not 1e-07).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); (abs > 0 && abs < 1e-6) || abs >= 1e21 {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendEstimateReply appends what json.Encoder.Encode writes for
// estimateResponse{Estimates: ents' values, Count: len(ents),
// ModelVersion: version}, trailing newline included.
func appendEstimateReply(b []byte, ents []estEntry, version int) []byte {
	b = append(b, `{"estimates":[`...)
	for i := range ents {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, ents[i].text[:ents[i].n]...)
	}
	b = append(b, `],"count":`...)
	b = strconv.AppendInt(b, int64(len(ents)), 10)
	b = append(b, `,"model_version":`...)
	b = strconv.AppendInt(b, int64(version), 10)
	return append(b, "}\n"...)
}

// writeEstimates answers a request with the estimates in sc.ents under
// model version, with writeJSON's headers and status.
func (s *Server) writeEstimates(w http.ResponseWriter, sc *estScratch, version int) {
	sc.reply = appendEstimateReply(sc.reply[:0], sc.ents, version)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(sc.reply); err != nil {
		obs.Error("serve.http.encode", "err", err)
	}
}
