package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Speed probes. The build box is a 2-CPU VM on a shared host, and for
// minutes at a time the host makes it slower: the same commit answers an
// estimate_hot request in 0.20 ms and, a quarter of an hour later, in
// 0.30 ms, with the daemon's CPU time per pair up by the same share.
// Such an episode outlasts any run that fits the driver's time cap, so a
// median over the run does not remove it. What does is a yardstick taken
// at the same moments: the estimate workloads cut their timed window into
// one-second slices and run two probes before each slice, and report each
// slice's numbers multiplied by the machine's speed at that moment
// relative to a reference speed (README.md, "Speed probes", has the runs
// this was fitted on).
//
// The probes use the standard library only. A change to the repository
// cannot make them faster, so it cannot hide behind them either.

// speed is one reading of both probes, in operations per second.
type speed struct {
	http float64 // closed-loop requests/s against a stdlib server in this process
	cpu  float64 // iterations/s of a fixed user-space loop on every caller thread
}

// The reference speed: about what the build box reads on a calm quarter
// of an hour (the loopback probe's median was 27.9k between
// estimate_hot's slices and 25.2k between estimate_novel's over 30 runs
// of each, the user-space loop's 786k on both). At this speed the
// reported numbers are the measured ones.
const (
	refHTTP = 26500.0
	refCPU  = 786000.0
)

// Each probe runs this long before every slice. Together they add a
// quarter of a second of idle daemon per second of load.
const (
	probeHTTPFor = 150 * time.Millisecond
	probeCPUFor  = 100 * time.Millisecond
)

// factor is the machine's speed relative to the reference: the weighted
// geometric mean of the two probes, weightHTTP on the loopback one. A
// time measured at this speed, times factor, is the time at the
// reference speed.
func (s speed) factor(weightHTTP float64) float64 {
	return math.Pow(s.http/refHTTP, weightHTTP) * math.Pow(s.cpu/refCPU, 1-weightHTTP)
}

// prober owns what the probes reuse between readings.
type prober struct {
	ln      net.Listener
	hs      *http.Server
	served  chan error
	body    []byte
	weights []float32
	text    []byte
}

func newProber() (*prober, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("speed probe: %w", err)
	}
	reply := bytes.Repeat([]byte("0.123456789,"), pairsPerRequest)
	p := &prober{
		ln:     ln,
		served: make(chan error, 1),
		// About the size of an estimate request of 16 pairs.
		body:    bytes.Repeat([]byte("select a from b where c < 1 "), 150),
		weights: make([]float32, 256*1024), // 1 MiB, read a row at a time
		text:    bytes.Repeat([]byte("select a, b from t1 where c < 12.5 and d = 'x' "), 40),
	}
	for i := range p.weights {
		p.weights[i] = float32(i%97) * 0.01
	}
	p.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil || len(body) == 0 {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		sum := sha256.Sum256(body)
		w.Header().Set("X-Sum", string(sum[:1]))
		_, _ = w.Write(reply) // a failed write shows as a failed request at the caller
	})}
	go func() { p.served <- p.hs.Serve(ln) }()
	return p, nil
}

func (p *prober) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.hs.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-p.served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// measure takes one reading of both probes.
func (p *prober) measure(ctx context.Context) (speed, error) {
	stream := func() request {
		return request{body: p.body, check: func(status int, _ []byte) error {
			if status != http.StatusOK {
				return fmt.Errorf("status %d", status)
			}
			return nil
		}}
	}
	streams := make([]func() request, loadClients)
	for i := range streams {
		streams[i] = stream
	}
	res := closedLoop(ctx, p.ln.Addr().String(), streams, probeHTTPFor, false)
	if res.failed > 0 || len(res.samples) == 0 {
		return speed{}, fmt.Errorf("speed probe: %d requests, %d failed: %v", len(res.samples), res.failed, res.failures)
	}
	s := speed{http: float64(len(res.samples)) / res.wall.Seconds()}

	// The user-space loop: a dot product over one row of the weights, a
	// byte scan with a hash, a map store. Throughput-bound, like the
	// daemon's parse and forward pass.
	var total atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < loadClients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := make([]float32, 256)
			for i := range x {
				x[i] = float32(i%13) * 0.1
			}
			m := make(map[uint64]float32, 2048)
			var sink float32
			n := int64(0)
			for time.Since(start) < probeCPUFor {
				w, row := p.weights, int(n%1024)*256
				var a0, a1, a2, a3 float32
				for i := 0; i < 256; i += 4 {
					a0 += w[row+i] * x[i]
					a1 += w[row+i+1] * x[i+1]
					a2 += w[row+i+2] * x[i+2]
					a3 += w[row+i+3] * x[i+3]
				}
				h := uint64(14695981039346656037)
				words := 0
				for _, c := range p.text {
					if c == ' ' {
						words++
					}
					h = (h ^ uint64(c)) * 1099511628211
				}
				sink += a0 + a1 + a2 + a3 + float32(words)
				m[h%4096+uint64(n%512)] = sink
				if len(m) > 2000 {
					clear(m)
				}
				n++
			}
			total.Add(n)
		}()
	}
	wg.Wait()
	s.cpu = float64(total.Load()) / time.Since(start).Seconds()
	if s.cpu <= 0 {
		return speed{}, errors.New("speed probe: the user-space loop did not run")
	}
	return s, nil
}
