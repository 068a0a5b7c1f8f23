package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator is closed loop: each client sends its next request
// only after the previous reply, because the callers being modelled are
// optimizer threads that block on the estimate. nproc is 2 on the build
// box, so two clients on two keep-alive connections load the daemon
// without starving it (ISSUE 11, "Load shape").
const loadClients = 2

// apiClient is one caller: a private transport pinned to a single
// keep-alive connection, and a reusable reply buffer.
type apiClient struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newAPIClient(addr string) *apiClient {
	return &apiClient{
		base: "http://" + addr,
		hc: &http.Client{
			Timeout: 60 * time.Second, // a forced advise under load takes ~10 s
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
			},
		},
	}
}

func (c *apiClient) close() { c.hc.CloseIdleConnections() }

// post sends body and returns the status and the reply bytes, which stay
// valid until the client's next call.
func (c *apiClient) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	_ = resp.Body.Close() // read-only body
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// request is what a stream hands a client: the bytes to send and a
// check of the reply that returns why it is wrong, or nil.
type request struct {
	body  []byte
	check func(status int, reply []byte) error
}

// loadResult is one closed-loop window.
type loadResult struct {
	samples  []time.Duration // latency of every request that completed and checked out
	wall     time.Duration
	failed   int
	failures []string // the first few reasons
	ttfb     []time.Duration
}

func (r *loadResult) fail(reason string) {
	r.failed++
	if len(r.failures) < maxFailureNotes {
		r.failures = append(r.failures, reason)
	}
}

const maxFailureNotes = 8

// closedLoop runs one goroutine per stream for dur, each asking its
// stream for the next request as soon as the previous reply arrived.
// Building the request happens between replies and is not timed. With
// withTTFB the clients also record time to first reply byte.
func closedLoop(ctx context.Context, addr string, streams []func() request, dur time.Duration, withTTFB bool) *loadResult {
	parts := make([]*loadResult, len(streams))
	var wg sync.WaitGroup
	start := time.Now()
	for i, next := range streams {
		i, next := i, next
		parts[i] = &loadResult{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newAPIClient(addr)
			defer c.close()
			res := parts[i]
			for time.Since(start) < dur && ctx.Err() == nil {
				rq := next()
				rctx := ctx
				var firstByte time.Time
				if withTTFB {
					rctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
						GotFirstResponseByte: func() { firstByte = time.Now() },
					})
				}
				t0 := time.Now()
				status, reply, err := c.post(rctx, "/v1/estimate", rq.body)
				t1 := time.Now()
				if err != nil {
					if ctx.Err() != nil {
						return
					}
					res.fail(fmt.Sprintf("client %d: %v", i, err))
					continue
				}
				if cerr := rq.check(status, reply); cerr != nil {
					res.fail(fmt.Sprintf("client %d: %v", i, cerr))
					continue
				}
				res.samples = append(res.samples, t1.Sub(t0))
				if withTTFB && !firstByte.IsZero() {
					res.ttfb = append(res.ttfb, firstByte.Sub(t0))
				}
			}
		}()
	}
	wg.Wait()
	out := &loadResult{wall: time.Since(start)}
	for _, p := range parts {
		out.add(p)
	}
	return out
}

// add merges what p observed into r; wall time is the caller's business.
func (r *loadResult) add(p *loadResult) {
	r.samples = append(r.samples, p.samples...)
	r.ttfb = append(r.ttfb, p.ttfb...)
	r.failed += p.failed
	for _, f := range p.failures {
		if len(r.failures) < maxFailureNotes {
			r.failures = append(r.failures, f)
		}
	}
}

// --- reply checks --------------------------------------------------------------

// nonPositiveEstimates counts estimates at or below zero. The W-D
// regressor's output is not clamped, and on a pair whose view does not
// occur in the query it can land slightly below zero; the API promises
// no sign, so this is reported as a note, not as a failure.
var nonPositiveEstimates atomic.Int64

// checkEstimateReply verifies one /v1/estimate reply: 200, exactly want
// estimates, each a finite number, and a matching count field. Replies
// have one fixed shape, so a small scanner does it without competing
// with the daemon for CPU:
//
//	{"estimates":[e1,…,en],"count":n,"model_version":m}
func checkEstimateReply(status int, reply []byte, want int) (modelVersion int, err error) {
	if status != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", status, clip(reply))
	}
	const head = `{"estimates":[`
	if !bytes.HasPrefix(reply, []byte(head)) {
		return 0, fmt.Errorf("unexpected reply shape: %s", clip(reply))
	}
	rest := reply[len(head):]
	end := bytes.IndexByte(rest, ']')
	if end < 0 {
		return 0, fmt.Errorf("unterminated estimates: %s", clip(reply))
	}
	n := 0
	for _, f := range bytes.Split(rest[:end], []byte{','}) {
		v, perr := strconv.ParseFloat(string(f), 64)
		if perr != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("estimate %d is %q, want a finite number", n, f)
		}
		if v <= 0 {
			nonPositiveEstimates.Add(1)
		}
		n++
	}
	if n != want {
		return 0, fmt.Errorf("%d estimates for %d pairs", n, want)
	}
	tail := bytes.TrimSpace(rest[end+1:])
	count, tail, ok1 := cutInt(tail, `,"count":`)
	modelVersion, tail, ok2 := cutInt(tail, `,"model_version":`)
	if !ok1 || !ok2 || string(tail) != "}" {
		return 0, fmt.Errorf("unexpected reply tail: %s", clip(rest[end+1:]))
	}
	if count != want {
		return 0, fmt.Errorf("count %d for %d pairs", count, want)
	}
	return modelVersion, nil
}

// cutInt strips prefix and the decimal integer after it from b.
func cutInt(b []byte, prefix string) (v int, rest []byte, ok bool) {
	if !bytes.HasPrefix(b, []byte(prefix)) {
		return 0, b, false
	}
	b = b[len(prefix):]
	i := 0
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		v = v*10 + int(b[i]-'0')
		i++
	}
	return v, b[i:], i > 0
}

func clip(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "…"
	}
	return string(b)
}
