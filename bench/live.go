package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// The four workloads, driven from outside the system under test: real
// viewserverd and viewgen child processes, HTTP over loopback, wall
// clock, /proc and the daemon's own /metrics. README.md says why each
// exists and which layers it loads or bypasses.

const (
	wlHot      = "estimate_hot"
	wlNovel    = "estimate_novel"
	wlMixed    = "advise_mixed"
	wlPipeline = "pipeline_rlview"
)

var workloadNames = []string{wlHot, wlNovel, wlMixed, wlPipeline}

// End-to-end metric names (BENCHMARK.json). Every workload reports all
// of them; README.md, "End-to-end metrics", says what the work item and
// the operation are on each workload.
const (
	mSetup = "setup_s"
	mP50   = "latency_p50_ms"
	mCPU   = "cpu_us_per_item"
)

// Caller-side measurements every workload also takes, which are notes in
// the result file and per-layer metrics (client.items_per_s,
// client.latency_p99_ms, core.advise_cycle_s, proc.peak_rss_mb), not
// end-to-end metrics: over seven ten-seed acceptance sets on the build box
// each of them had an interquartile range above 25 % of its median on
// some workload, and ISSUE 11 moves such a metric to the per-layer list.
// README.md, "Bounds and the build box", has the numbers.
const (
	noteItems = "items_per_s"
	noteP99   = "latency_p99_ms"
	// notePeakRSS is the child's resident-set high-water mark in MiB:
	// VmHWM of the daemon before it is stopped, rusage's max RSS of
	// viewgen.
	notePeakRSS = "peak_rss_mb"
	// noteAdvise is the time to turn the current workload into a trained
	// model and a selected view set: a forced advise after an ingest
	// burst on the daemon workloads (idle on estimate_hot and
	// estimate_novel, under the reader's load on advise_mixed, median of
	// the rounds), the estimate and select stages of viewgen on
	// pipeline_rlview.
	noteAdvise = "advise_cycle_s"
)

const (
	unitS     = "s"
	unitMS    = "ms"
	unitUS    = "us"
	unitNS    = "ns"
	unitRate  = "1/s"
	unitMB    = "MB"
	unitCount = "count"
	unitRatio = "ratio"
	unitBytes = "B"
	unitPct   = "%"
)

const (
	// warmup runs the timed window's own load, untimed, so connections,
	// scratch pools and the Go runtime's heap target have settled.
	warmup = 1500 * time.Millisecond
	// Each ingest burst is ingestRequests requests of ingestQueries
	// queries: 768 queries, one and a half rolling windows (512).
	ingestRequests = 24
	ingestQueries  = 32
	// resendSamples bounds how many novel requests are kept to be sent
	// again after the window.
	resendSamples = 64
	// wk1Queries is the item count of one pipeline run.
	wk1Queries = 600
)

// harness holds what every workload of one invocation shares.
type harness struct {
	buildDir   string // .bench_build, inside the checkout
	serverBin  string
	viewgenBin string
	queries    []string // wk1's SQL
	tmpl       []template
	seed       int64
	seconds    int
	trace      bool
	compileS   float64 // forced rebuild of the repo's packages (traced runs)
}

// tempDir makes a fresh directory under the build directory; the caller
// removes it.
func (h *harness) tempDir(tag string) (string, error) {
	parent := filepath.Join(h.buildDir, "tmp")
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(parent, tag+"-")
}

// window is the timed window of a serving workload. A traced run keeps
// the live part short: it is there for the daemon's counters, and the
// layer replays need the time.
func (h *harness) window() time.Duration {
	if h.trace {
		return time.Duration(max(3, h.seconds/3)) * time.Second
	}
	return time.Duration(h.seconds) * time.Second
}

func (h *harness) run(ctx context.Context, workload string) *runResult {
	start := time.Now()
	var r *runResult
	switch workload {
	case wlHot, wlNovel:
		r = h.runEstimate(ctx, workload)
	case wlMixed:
		r = h.runMixed(ctx)
	case wlPipeline:
		r = h.runPipeline(ctx)
	default:
		r = newRunResult(workload, h.seed, h.seconds, h.trace)
		r.op("workload", fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames, ", ")))
	}
	r.Notes["nonpositive_estimates"] = float64(nonPositiveEstimates.Swap(0))
	if h.trace {
		h.runLayers(r)
	}
	r.WallS = time.Since(start).Seconds()
	return r
}

var daemonBaseArgs = []string{"-workload", "wk1", "-seed", "1", "-parallelism", "0"}

// live is one daemon under measurement plus the bookkeeping every
// serving workload needs.
type live struct {
	d       *daemon
	r       *runResult
	readyIn time.Duration
	views   []string
}

// bringUp starts a daemon and waits for it. A daemon that does not come
// up fails the operations the workload had planned instead of hanging.
func (h *harness) bringUp(r *runResult, planned []string, args ...string) *live {
	d, err := startDaemon(h.serverBin, append(append([]string{}, daemonBaseArgs...), args...)...)
	if err == nil {
		var readyIn time.Duration
		if readyIn, err = d.waitReady(); err == nil {
			var vs viewSet
			if err = d.getJSON("/v1/views", &vs); err == nil && len(vs.Views) == 0 {
				err = errors.New("the bootstrap view set is empty")
			}
			if err == nil {
				r.op("daemon_start", nil)
				return &live{d: d, r: r, readyIn: readyIn, views: vs.sqls()}
			}
		}
		r.DaemonStderr = d.stderr.String()
		d.kill()
	}
	r.op("daemon_start", err)
	for _, kind := range planned {
		r.op(kind, errors.New("not attempted: the daemon did not start"))
	}
	return nil
}

// abort ends a run whose harness-side step failed: the step is counted,
// the daemon's stderr is kept, the daemon is killed.
func (l *live) abort(kind string, err error) *runResult {
	l.r.op(kind, err)
	l.r.DaemonStderr = l.d.stderr.String()
	l.d.kill()
	return l.r
}

// measured is what a timed window yields besides the latencies.
type measured struct {
	load          *loadResult
	before, after *scrape
	cpu0, cpuS    float64
	pairs         int
	slices        []slice // estimate_hot and estimate_novel only
}

// slice is one second of a sliced window (probe.go says why the estimate
// workloads slice): the callers' median latency, the daemon's CPU time
// per pair, and the machine's speed read just before.
type slice struct {
	p50     time.Duration
	cpuUS   float64
	machine speed
}

// probeWeight is the loopback probe's weight in each sliced workload's
// speed factor, fitted on 55 + 54 alternating runs of the two workloads
// that included a slow episode of the build box (README.md, "Speed
// probes").
// estimate_hot is net/http and the kernel around a cache probe and
// follows the loopback probe alone; estimate_novel is mostly parsing and
// the forward pass and leans on the user-space loop.
var probeWeight = map[string]float64{wlHot: 1, wlNovel: 0.3}

// sliceFor is how long each slice applies load.
const sliceFor = time.Second

// resend is a request kept with its first reply, to be sent again.
type resend struct {
	body, reply []byte
}

// begin takes the readings that open a window: the daemon's counters
// and its CPU time.
func (l *live) begin() (*measured, error) {
	m := &measured{}
	var err error
	if m.before, err = l.d.scrape(); err != nil {
		return nil, fmt.Errorf("scrape before the window: %w", err)
	}
	if m.cpu0, err = procCPU(l.d.pid()); err != nil {
		return nil, err
	}
	return m, nil
}

// end takes the closing readings.
func (l *live) end(m *measured, load *loadResult) error {
	cpu1, err := procCPU(l.d.pid())
	if err != nil {
		return err
	}
	if m.after, err = l.d.scrape(); err != nil {
		return fmt.Errorf("scrape after the window: %w", err)
	}
	m.load = load
	m.cpuS = cpu1 - m.cpu0
	m.pairs = len(load.samples) * pairsPerRequest
	return nil
}

// slicedWindow runs the timed window as slices of load with a speed
// probe before each. The daemon idles while the probes run; the window's
// wall time is the slices' alone.
func (l *live) slicedWindow(ctx context.Context, streams []func() request, window time.Duration, withTTFB bool) (*measured, error) {
	p, err := newProber()
	if err != nil {
		return nil, err
	}
	m, err := l.begin()
	all := &loadResult{}
	for i := 0; err == nil && i < int(window/sliceFor); i++ {
		var sl slice
		if sl.machine, err = p.measure(ctx); err != nil {
			break
		}
		var cpu0, cpu1 float64
		if cpu0, err = procCPU(l.d.pid()); err != nil {
			break
		}
		res := closedLoop(ctx, l.d.addr, streams, sliceFor, withTTFB)
		if cpu1, err = procCPU(l.d.pid()); err != nil {
			break
		}
		all.add(res)
		all.wall += res.wall
		if n := len(res.samples); n > 0 {
			sl.p50 = medianDuration(append([]time.Duration(nil), res.samples...))
			sl.cpuUS = (cpu1 - cpu0) / float64(n*pairsPerRequest) * 1e6
			m.slices = append(m.slices, sl)
		}
	}
	if err == nil {
		err = l.end(m, all)
	}
	if cerr := p.close(); err == nil {
		err = cerr
	}
	return m, err
}

// report turns a window into the serving metrics and counts its
// requests.
func (l *live) report(m *measured) {
	r := l.r
	n := len(m.load.samples) + m.load.failed
	r.ops("estimate", n, m.load.failed, m.load.failures)
	lats := m.load.samples
	t := summarize(lats, 99)
	r.Timings["estimate"] = t
	if len(m.load.ttfb) > 0 {
		r.Timings["estimate_ttfb"] = summarize(m.load.ttfb, 99)
	}
	if len(lats) == 0 {
		r.op("window", errors.New("no request completed in the timed window"))
		return
	}
	r.EndToEnd[mP50] = metricValue{t.MedianMS, unitMS}
	r.Notes[noteItems] = float64(m.pairs) / m.load.wall.Seconds()
	// With fewer than 1000 samples p99 has under ten samples beyond it;
	// the note then carries the highest percentile that does.
	r.Notes[noteP99] = t.TailMS
	r.EndToEnd[mCPU] = metricValue{m.cpuS / float64(m.pairs) * 1e6, unitUS}
	if len(m.slices) > 0 {
		// A sliced window reports the median slice at the reference
		// machine speed; what was measured stays in the notes.
		r.Notes["measured_"+mP50] = r.EndToEnd[mP50].Value
		r.Notes["measured_"+mCPU] = r.EndToEnd[mCPU].Value
		w := probeWeight[r.Workload]
		var p50s, cpus, factors, https, users []float64
		for _, sl := range m.slices {
			f := sl.machine.factor(w)
			p50s = append(p50s, ms(sl.p50)*f)
			cpus = append(cpus, sl.cpuUS*f)
			factors = append(factors, f)
			https = append(https, sl.machine.http)
			users = append(users, sl.machine.cpu)
		}
		r.EndToEnd[mP50] = metricValue{median(p50s), unitMS}
		r.EndToEnd[mCPU] = metricValue{median(cpus), unitUS}
		r.Notes["speed_factor"] = median(factors)
		r.Notes["speed_probe_http_per_s"] = median(https)
		r.Notes["speed_probe_cpu_per_s"] = median(users)
	}
	r.Notes["window_s"] = m.load.wall.Seconds()
	r.Notes["daemon_cpu_cores"] = m.cpuS / m.load.wall.Seconds()
	// The daemon's own counters over the window: per-layer metrics of a
	// traced run, notes of every run.
	counters := liveCounters(m)
	if r.Trace {
		r.PerLayer = counters
	}
	for k, v := range counters {
		r.Notes[k] = v.Value
	}
}

// liveCounters derives the live per-layer numbers from the two scrapes
// of a window (traced runs report them; untraced runs keep them as
// notes).
func liveCounters(m *measured) map[string]metricValue {
	out := map[string]metricValue{}
	hit := delta(m.before, m.after, "autoview_serve_cache_hit_total")
	miss := delta(m.before, m.after, "autoview_serve_cache_miss_total")
	phit := delta(m.before, m.after, "autoview_serve_cache_plan_hit_total")
	pmiss := delta(m.before, m.after, "autoview_serve_cache_plan_miss_total")
	out["serve.cache_hit_ratio"] = metricValue{ratio(hit, miss), unitRatio}
	out["serve.plan_cache_hit_ratio"] = metricValue{ratio(phit, pmiss), unitRatio}
	out["serve.cache_evictions"] = metricValue{delta(m.before, m.after, "autoview_serve_cache_evict_total") +
		delta(m.before, m.after, "autoview_serve_cache_plan_evict_total"), unitCount}
	batches := delta(m.before, m.after, "autoview_serve_batch_count_total")
	batched := delta(m.before, m.after, "autoview_serve_batch_size_sum")
	mean := 0.0
	if batches > 0 {
		mean = batched / batches
	}
	out["serve.batch_pairs_mean"] = metricValue{mean, unitCount}
	out["serve.shed_count"] = metricValue{delta(m.before, m.after, "autoview_serve_shed_total"), unitCount}
	out["serve.timeout_count"] = metricValue{delta(m.before, m.after, "autoview_serve_timeouts_total"), unitCount}
	perPair := 0.0
	if m.pairs > 0 {
		perPair = (m.after.TotalAlloc - m.before.TotalAlloc) / float64(m.pairs)
	}
	out["proc.alloc_bytes_per_pair"] = metricValue{perPair, unitBytes}
	out["proc.gc_count"] = metricValue{m.after.NumGC - m.before.NumGC, unitCount}
	// The WAL counters stay 0 on a daemon without -data-dir.
	ingested := delta(m.before, m.after, "autoview_serve_ingest_queries_total")
	perQuery := 0.0
	if ingested > 0 {
		perQuery = delta(m.before, m.after, "autoview_durable_wal_bytes_total") / ingested
	}
	out["durable.wal_bytes_per_query"] = metricValue{perQuery, unitBytes}
	out["durable.fsyncs"] = metricValue{delta(m.before, m.after, "autoview_durable_wal_fsyncs_total"), unitCount}
	return out
}

// noDaemonCounters is what a workload without a daemon reports for the
// live counters: nothing was served, so every count and ratio is 0.
func noDaemonCounters() map[string]metricValue {
	zero := &scrape{Metrics: map[string]float64{}}
	return liveCounters(&measured{before: zero, after: zero})
}

// --- estimate_hot and estimate_novel -------------------------------------------

func (h *harness) runEstimate(ctx context.Context, name string) *runResult {
	r := newRunResult(name, h.seed, h.seconds, h.trace)
	l := h.bringUp(r, []string{"prime", "estimate", "ingest", "advise"}, "-selector", "topkben")
	if l == nil {
		return r
	}
	defer l.d.kill()

	var streams []func() request
	var prime [][]byte
	resends := make([][]resend, loadClients) // one per client goroutine
	novel := make([]*novelStream, loadClients+1)
	for i := range novel {
		novel[i] = newNovelStream(h.seed, i, len(novel), h.tmpl)
	}
	writer := novel[loadClients]

	var expected [][]byte // hot: the reply each body must keep getting
	primedVersion := 0    // and the model_version it was computed under
	if name == wlHot {
		var err error
		if prime, err = hotSet(h.seed, h.queries, l.views); err != nil {
			return l.abort("prime", err)
		}
		expected = make([][]byte, len(prime))
		for c := 0; c < loadClients; c++ {
			rng := rand.New(rand.NewSource(h.seed*7919 + int64(c)))
			streams = append(streams, func() request {
				i := rng.Intn(len(prime))
				return request{body: prime[i], check: func(status int, reply []byte) error {
					if status == http.StatusOK && bytes.Equal(reply, expected[i]) {
						return nil
					}
					// Not the primed bytes: the reply is broken, or the
					// model changed (nothing here should cause that), or
					// one model gave two answers.
					version, err := checkEstimateReply(status, reply, pairsPerRequest)
					if err != nil {
						return err
					}
					if version != primedVersion {
						return fmt.Errorf("body %d: model_version went from %d to %d during the window", i, primedVersion, version)
					}
					return fmt.Errorf("body %d: reply changed while model_version stayed %d: %s", i, version, clip(reply))
				}}
			})
		}
	} else {
		for c := 0; c < loadClients; c++ {
			c, s := c, novel[c]
			sent := 0
			streams = append(streams, func() request {
				body := s.estimateBody()
				keep := sent%32 == 0 && len(resends[c]) < resendSamples/loadClients
				sent++
				return request{body: body, check: func(status int, reply []byte) error {
					if _, err := checkEstimateReply(status, reply, pairsPerRequest); err != nil {
						return err
					}
					if keep {
						resends[c] = append(resends[c], resend{body, append([]byte(nil), reply...)})
					}
					return nil
				}}
			})
			// Priming a workload that must miss every cache only opens
			// the path once; the warm-up does the rest.
			prime = append(prime, s.estimateBody())
		}
	}

	// Priming: part of set-up, as a caller would see it.
	c := newAPIClient(l.d.addr)
	defer c.close()
	primeStart := time.Now()
	for i, body := range prime {
		status, reply, err := c.post(ctx, "/v1/estimate", body)
		if err == nil {
			primedVersion, err = checkEstimateReply(status, reply, pairsPerRequest)
		}
		r.op("prime", err)
		if err == nil && expected != nil {
			expected[i] = append([]byte(nil), reply...)
		}
	}
	if _, failed := r.totals(); failed > 0 {
		return l.abort("window", errors.New("priming failed; the timed window was not run"))
	}
	r.EndToEnd[mSetup] = metricValue{(l.readyIn + time.Since(primeStart)).Seconds(), unitS}
	r.Notes["ready_s"] = l.readyIn.Seconds()

	closedLoop(ctx, l.d.addr, streams, warmup, false)
	for c := range resends {
		resends[c] = nil // samples come from the timed window only
	}
	m, err := l.slicedWindow(ctx, streams, h.window(), h.trace)
	if err != nil {
		return l.abort("window", err)
	}
	l.report(m)

	// Novel requests sent again after the window must get their first
	// reply back byte for byte: the cached path and the computed path
	// are one function.
	for _, kept := range resends {
		for _, rs := range kept {
			status, reply, err := c.post(ctx, "/v1/estimate", rs.body)
			if err == nil && (status != http.StatusOK || !bytes.Equal(reply, rs.reply)) {
				err = fmt.Errorf("re-sent request got %s, first reply was %s", clip(reply), clip(rs.reply))
			}
			r.op("resend", err)
		}
	}

	// An idle re-advise: one ingest burst, then a forced cycle with no
	// estimate load beside it (advise_mixed runs the same under load).
	if cycles, ok := l.writeRounds(ctx, c, writer, 1); ok {
		_, r.Notes[noteAdvise], _ = quartiles(cycles)
	}
	l.finish()
	return r
}

// finish reads the peak RSS and ends the daemon the polite way.
func (l *live) finish() {
	rss, err := procPeakRSS(l.d.pid())
	l.r.op("proc_status", err)
	if err == nil {
		l.r.Notes[notePeakRSS] = rss
	}
	if err := l.d.stop(); err != nil {
		l.r.op("shutdown", err)
		l.r.DaemonStderr = l.d.stderr.String()
		return
	}
	l.r.op("shutdown", nil)
	if _, failed := l.r.totals(); failed > 0 {
		l.r.DaemonStderr = l.d.stderr.String()
	}
}

// adviseReply is the subset of POST /v1/advise the checks read.
type adviseReply struct {
	Version int  `json:"version"`
	Swapped bool `json:"swapped"`
	Views   int  `json:"views"`
	Window  int  `json:"window"`
}

// writeRounds runs the writer script: rounds × (one ingest burst, one
// forced advise). It returns the seconds each advise took, and false if
// any step failed. Every advise reply must advance the view-set version
// by one, and GET /v1/views must agree.
func (l *live) writeRounds(ctx context.Context, c *apiClient, s *novelStream, rounds int) ([]float64, bool) {
	r := l.r
	ok := true
	var cycles []float64
	var before viewSet
	if err := l.d.getJSON("/v1/views", &before); err != nil {
		r.op("advise", fmt.Errorf("read the view set before the script: %w", err))
		return nil, false
	}
	version := before.Version
	var ingestTime time.Duration
	ingested := 0
	for round := 0; round < rounds; round++ {
		for i := 0; i < ingestRequests; i++ {
			body := s.ingestBody(ingestQueries)
			t0 := time.Now()
			status, reply, err := c.post(ctx, "/v1/queries", body)
			ingestTime += time.Since(t0)
			if err == nil && status != http.StatusAccepted {
				err = fmt.Errorf("status %d: %s", status, clip(reply))
			}
			if err == nil {
				var ir struct {
					Accepted int `json:"accepted"`
				}
				if jerr := json.Unmarshal(reply, &ir); jerr != nil || ir.Accepted != ingestQueries {
					err = fmt.Errorf("accepted %d of %d queries: %s", ir.Accepted, ingestQueries, clip(reply))
				}
			}
			r.op("ingest", err)
			if err != nil {
				ok = false
			} else {
				ingested += ingestQueries
			}
		}
		t0 := time.Now()
		status, reply, err := c.post(ctx, "/v1/advise", []byte(`{"force":true}`))
		took := time.Since(t0)
		var ar adviseReply
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, clip(reply))
		}
		if err == nil {
			err = json.Unmarshal(reply, &ar)
		}
		if err == nil && (!ar.Swapped || ar.Version != version+1) {
			err = fmt.Errorf("forced advise answered version %d swapped=%v after version %d", ar.Version, ar.Swapped, version)
		}
		if err == nil {
			var now viewSet
			if err = l.d.getJSON("/v1/views", &now); err == nil && (now.Version != ar.Version || len(now.Views) != ar.Views) {
				err = fmt.Errorf("advise said version %d with %d views, /v1/views has version %d with %d",
					ar.Version, ar.Views, now.Version, len(now.Views))
			}
		}
		r.op("advise", err)
		if err != nil {
			ok = false
			continue
		}
		version = ar.Version
		cycles = append(cycles, took.Seconds())
	}
	if ingestTime > 0 {
		r.Notes["ingest_queries_per_s"] = float64(ingested) / ingestTime.Seconds()
	}
	return cycles, ok && len(cycles) == rounds
}

// --- advise_mixed ----------------------------------------------------------------

// mixedRounds is the writer script's length for a run of the given
// length: a round is an ingest burst plus a forced advise, about 6.5 s
// under the reader's load on the build box (3.5 s idle).
func mixedRounds(seconds int) int { return max(1, seconds/5) }

func (h *harness) runMixed(ctx context.Context) *runResult {
	r := newRunResult(wlMixed, h.seed, h.seconds, h.trace)
	dataDir, err := h.tempDir("data")
	if err != nil {
		r.op("daemon_start", err)
		return r
	}
	defer func() { _ = os.RemoveAll(dataDir) }() // scratch; a leftover is harmless and ignored by git
	args := []string{"-selector", "localsearch", "-data-dir", dataDir, "-fsync", "interval"}
	l := h.bringUp(r, []string{"prime", "estimate", "ingest", "advise", "restart"}, args...)
	if l == nil {
		return r
	}
	defer func() { l.d.kill() }()

	reader := newMixedStream(h.seed, 0, h.queries, l.views)
	writer := newNovelStream(h.seed, 1, 2, h.tmpl)
	readerStream := func() request {
		return request{body: reader.estimateBody(), check: func(status int, reply []byte) error {
			_, err := checkEstimateReply(status, reply, pairsPerRequest)
			return err
		}}
	}
	// probe is the fixed request whose reply must survive the crash.
	probe := newMixedStream(h.seed, 99, h.queries, l.views).estimateBody()

	c := newAPIClient(l.d.addr)
	defer c.close()
	primeStart := time.Now()
	for i := 0; i < 2*pairsPerRequest; i++ {
		status, reply, err := c.post(ctx, "/v1/estimate", reader.estimateBody())
		if err == nil {
			_, err = checkEstimateReply(status, reply, pairsPerRequest)
		}
		r.op("prime", err)
	}
	if _, failed := r.totals(); failed > 0 {
		return l.abort("window", errors.New("priming failed; the script was not run"))
	}
	r.EndToEnd[mSetup] = metricValue{(l.readyIn + time.Since(primeStart)).Seconds(), unitS}
	r.Notes["ready_s"] = l.readyIn.Seconds()

	closedLoop(ctx, l.d.addr, []func() request{readerStream}, warmup, false)

	// The window is the writer's script: the reader runs until it ends.
	rounds := mixedRounds(h.seconds)
	if h.trace {
		rounds = 1
	}
	loadCtx, stopReader := context.WithCancel(ctx)
	defer stopReader()
	type scriptResult struct {
		cycles []float64
		ok     bool
	}
	m, err := l.begin()
	if err != nil {
		return l.abort("window", err)
	}
	done := make(chan scriptResult, 1)
	go func() {
		wc := newAPIClient(l.d.addr)
		defer wc.close()
		cycles, ok := l.writeRounds(ctx, wc, writer, rounds)
		stopReader()
		done <- scriptResult{cycles, ok}
	}()
	load := closedLoop(loadCtx, l.d.addr, []func() request{readerStream}, time.Hour, h.trace)
	script := <-done
	if err := l.end(m, load); err != nil {
		return l.abort("window", err)
	}
	l.report(m)
	if script.ok {
		_, r.Notes[noteAdvise], _ = quartiles(script.cycles)
	}
	for key, counter := range map[string]string{
		"wal_bytes":        "autoview_durable_wal_bytes_total",
		"wal_appends":      "autoview_durable_wal_appends_total",
		"ingested_queries": "autoview_serve_ingest_queries_total",
	} {
		r.Exact[key] = strconv.FormatFloat(delta(m.before, m.after, counter), 'f', 0, 64)
	}
	r.Exact["writer_requests"] = strconv.Itoa(r.Ops["ingest"].Attempted + r.Ops["advise"].Attempted)

	// Crash and recover: SIGKILL, restart on the same data directory,
	// and the state and one fixed reply must be what they were.
	var before health
	err = l.d.getJSON("/v1/healthz", &before)
	var probeReply []byte
	if err == nil {
		var status int
		var reply []byte
		if status, reply, err = c.post(ctx, "/v1/estimate", probe); err == nil {
			_, err = checkEstimateReply(status, reply, pairsPerRequest)
			probeReply = append([]byte(nil), reply...)
		}
	}
	rss, rssErr := procPeakRSS(l.d.pid())
	r.op("proc_status", rssErr)
	if rssErr == nil {
		r.Notes[notePeakRSS] = rss
	}
	if err != nil {
		return l.abort("restart", fmt.Errorf("read the state before the crash: %w", err))
	}
	l.d.kill()
	c.close()
	d2, err := startDaemon(h.serverBin, append(append([]string{}, daemonBaseArgs...), args...)...)
	if err != nil {
		r.op("restart", err)
		return r
	}
	l.d = d2
	restartIn, err := d2.waitReady()
	if err == nil {
		r.Notes["restart_ready_s"] = restartIn.Seconds()
		var after health
		if err = d2.getJSON("/v1/healthz", &after); err == nil && after != before {
			err = fmt.Errorf("state after the restart is %+v, before the crash it was %+v", after, before)
		}
	}
	if err == nil {
		c2 := newAPIClient(d2.addr)
		status, reply, perr := c2.post(ctx, "/v1/estimate", probe)
		c2.close()
		switch {
		case perr != nil:
			err = perr
		case status != http.StatusOK || !bytes.Equal(reply, probeReply):
			err = fmt.Errorf("the probe's reply after the restart is %s, before the crash it was %s", clip(reply), clip(probeReply))
		}
	}
	r.op("restart", err)
	if err != nil {
		r.DaemonStderr = d2.stderr.String()
	}
	r.op("shutdown", d2.stop())
	return r
}

// --- pipeline_rlview ---------------------------------------------------------------

// pipelineReport is viewgen's Table V line, parsed.
type pipelineReport struct {
	line                 string
	queries, views, used int
	rawCost, overhead    float64
	benefit, savedPct    float64
}

func parseReport(line string) (*pipelineReport, error) {
	p := &pipelineReport{line: line}
	_, err := fmt.Sscanf(line, "W-D+RLView: #q=%d cq=$%f | #m=%d om=$%f | #(q|v)=%d bq|v=$%f | rc=%f%%",
		&p.queries, &p.rawCost, &p.views, &p.overhead, &p.used, &p.benefit, &p.savedPct)
	if err != nil {
		return nil, fmt.Errorf("report line %q: %w", line, err)
	}
	return p, nil
}

// check holds the report to what it claims: the whole workload, a saving
// that is the paper's r_c = (b − o)/c of its own columns, and a view set
// that pays for itself.
func (p *pipelineReport) check() error {
	if p.queries != wk1Queries {
		return fmt.Errorf("report covers %d queries, wk1 has %d", p.queries, wk1Queries)
	}
	if p.views <= 0 || p.used <= 0 || p.used > p.queries {
		return fmt.Errorf("report has %d views serving %d queries", p.views, p.used)
	}
	if p.rawCost <= 0 || math.IsNaN(p.savedPct) || math.IsInf(p.savedPct, 0) {
		return fmt.Errorf("report has cost %v and saved ratio %v", p.rawCost, p.savedPct)
	}
	want := (p.benefit - p.overhead) / p.rawCost * 100
	// The columns are printed to 4 decimals of a dollar amount near 1.
	if math.Abs(want-p.savedPct) > 0.05 {
		return fmt.Errorf("report says rc=%.2f%% but its columns give %.2f%%", p.savedPct, want)
	}
	if p.savedPct <= 0 {
		return fmt.Errorf("the selected views cost more than they save: rc=%.2f%%", p.savedPct)
	}
	return nil
}

func (h *harness) runPipeline(ctx context.Context) *runResult {
	r := newRunResult(wlPipeline, h.seed, h.seconds, h.trace)
	ctx, cancel := context.WithTimeout(ctx, 150*time.Second)
	defer cancel()
	stamps := map[string]time.Duration{}
	var report string
	onLine := func(line string, at time.Duration) {
		for _, stage := range []string{"pre-process:", "estimator ", "selector ", "W-D+RLView:"} {
			if strings.HasPrefix(line, stage) {
				stamps[stage] = at
			}
		}
		if strings.HasPrefix(line, "W-D+RLView:") {
			report = line
		}
	}
	child, err := runChild(ctx, onLine, h.viewgenBin,
		"-workload", "wk1", "-estimator", "wd", "-selector", "rlview", "-seed", strconv.FormatInt(h.seed, 10))
	r.op("viewgen", err)
	if err != nil {
		r.DaemonStderr = child.stderr
		return r
	}
	wall, cpu, rss := child.wall, child.cpuS, child.rssMB
	rep, err := parseReport(report)
	if err == nil {
		err = rep.check()
	}
	r.op("report", err)
	if err != nil {
		return r
	}
	for _, stage := range []string{"pre-process:", "estimator ", "selector ", "W-D+RLView:"} {
		if _, ok := stamps[stage]; !ok {
			r.op("report", fmt.Errorf("viewgen printed no %q line", stage))
			return r
		}
	}
	r.Exact["report_line"] = rep.line

	// The work item is one workload query taken through estimate, select
	// and rewrite; the operation is the run itself, so with one sample
	// the median and the tail are both its wall time.
	r.EndToEnd[mSetup] = metricValue{stamps["pre-process:"].Seconds(), unitS}
	r.EndToEnd[mP50] = metricValue{ms(wall), unitMS}
	r.Notes[noteItems] = wk1Queries / wall.Seconds()
	r.Notes[noteP99] = ms(wall)
	r.EndToEnd[mCPU] = metricValue{cpu / wk1Queries * 1e6, unitUS}
	r.Notes[noteAdvise] = (stamps["selector "] - stamps["pre-process:"]).Seconds()
	r.Notes[notePeakRSS] = rss
	r.Timings["viewgen"] = timing{N: 1, MedianMS: ms(wall), Tail: 50, TailMS: ms(wall)}
	r.Notes["pipeline_wall_s"] = wall.Seconds()
	r.Notes["pipeline_cpu_s"] = cpu
	r.Notes["saved_cost_ratio_pct"] = rep.savedPct
	r.Notes["stage_estimate_s"] = (stamps["estimator "] - stamps["pre-process:"]).Seconds()
	r.Notes["stage_select_s"] = (stamps["selector "] - stamps["estimator "]).Seconds()
	r.Notes["stage_rewrite_s"] = (stamps["W-D+RLView:"] - stamps["selector "]).Seconds()
	if h.trace {
		r.PerLayer = noDaemonCounters()
	}
	return r
}
