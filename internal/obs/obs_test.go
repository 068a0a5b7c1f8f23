package obs

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test.count", "test counter")
	g := r.Gauge("test.gauge", "test gauge")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				c.Add(2)
				g.Set(float64(i))
			}
		}()
	}
	wg.Wait()
	if got, want := c.Value(), int64(workers*per*3); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got, want := g.Value(), float64(per-1); got != want {
		t.Errorf("gauge = %g, want the last write %g", got, want)
	}
	c.Add(-5)
	if got := c.Value(); got != int64(workers*per*3) {
		t.Errorf("negative Add changed counter to %d", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test.hist", "test histogram", 1, 10, 100)
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w%4) * 5) // 0, 5, 10, 15 → buckets ≤1, ≤10, ≤10, ≤100
			}
		}(w)
	}
	wg.Wait()
	if got, want := h.Count(), int64(workers*per); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	snap := r.Snapshot().Histograms[0]
	// Per-worker values: workers 0,4 → 0 (≤1); 1,5 → 5 (≤10); 2,6 → 10 (≤10); 3,7 → 15 (≤100).
	if snap.Buckets[0] != 2*per || snap.Buckets[1] != 4*per || snap.Buckets[2] != 2*per {
		t.Errorf("bucket counts = %v, want [%d %d %d 0]", snap.Buckets, 2*per, 4*per, 2*per)
	}
	wantSum := float64(per) * (0 + 5 + 10 + 15) * 2
	if snap.Sum != wantSum {
		t.Errorf("sum = %g, want %g", snap.Sum, wantSum)
	}
}

func TestSnapshotDeterminism(t *testing.T) {
	r := NewRegistry()
	// Register in non-alphabetical order.
	r.Counter("z.last", "z").Add(3)
	r.Counter("a.first", "a").Inc()
	r.Gauge("m.mid", "m").Set(2.5)
	r.Histogram("b.hist", "b", 1, 2).Observe(1.5)
	s1, s2 := r.Snapshot(), r.Snapshot()
	if s1.Text() != s2.Text() {
		t.Fatal("two snapshots of the same state rendered differently")
	}
	if s1.Counters[0].Name != "a.first" || s1.Counters[1].Name != "z.last" {
		t.Errorf("counters not name-sorted: %+v", s1.Counters)
	}
	var buf1, buf2 strings.Builder
	s1.WritePrometheus(&buf1)
	s2.WritePrometheus(&buf2)
	if buf1.String() != buf2.String() {
		t.Fatal("prometheus rendering not deterministic")
	}
}

func TestRegistryReset(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", 1)
	c.Inc()
	g.Set(4)
	h.Observe(0.5)
	r.Reset()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Errorf("Reset left values: c=%d g=%g hc=%d hs=%g", c.Value(), g.Value(), h.Count(), h.Sum())
	}
	// Registrations survive.
	if r.Counter("c", "") != c {
		t.Error("Reset dropped the counter registration")
	}
}

func TestSpanTiming(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	ran := false
	r.Time("stage.work", func() {
		ran = true
		time.Sleep(time.Millisecond)
	})
	if !ran {
		t.Fatal("Time did not run fn")
	}
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 || snap.Histograms[0].Name != "stage.work.seconds" {
		t.Fatalf("span histogram missing: %+v", snap.Histograms)
	}
	h := snap.Histograms[0]
	if h.Count != 1 || h.Sum < 0.001 {
		t.Errorf("span recorded count=%d sum=%g, want 1 observation ≥ 1ms", h.Count, h.Sum)
	}

	// Disabled registry: fn still runs, nothing recorded.
	r2 := NewRegistry()
	ran = false
	r2.Time("stage.work", func() { ran = true })
	if !ran {
		t.Fatal("disabled Time did not run fn")
	}
	if len(r2.Snapshot().Histograms) != 0 {
		t.Error("disabled Time registered a histogram")
	}
}

// TestSpanHandle: a resolved span records one observation per run into
// "<name>.seconds", shares its registration with StartSpan and Time
// under the same name, registers nothing while the registry is
// disabled, and records a run begun while enabled even if the registry
// is disabled before it ends (as a StartSpan closure does). At debug
// level its end emits the span's event.
func TestSpanHandle(t *testing.T) {
	r := NewRegistry()
	sp := r.Span("stage.handle")
	if r.Span("stage.handle") != sp {
		t.Fatal("Span is not get-or-create")
	}
	sp.End(sp.Begin())
	if len(r.Snapshot().Histograms) != 0 {
		t.Fatal("a disabled run registered a histogram")
	}
	r.SetEnabled(true)
	start := sp.Begin()
	time.Sleep(time.Millisecond)
	r.SetEnabled(false)
	sp.End(start)
	r.SetEnabled(true)
	r.StartSpan("stage.handle")()
	r.Time("stage.handle", func() {})
	hs := r.Snapshot().Histograms
	if len(hs) != 1 || hs[0].Name != "stage.handle.seconds" || hs[0].Count != 3 || hs[0].Sum < 0.001 {
		t.Fatalf("span histogram: %+v, want stage.handle.seconds with 3 runs, one >= 1ms", hs)
	}

	t.Cleanup(func() { LogTo(io.Discard, levelOff) })
	var buf strings.Builder
	LogTo(&buf, slog.LevelDebug)
	sp.End(sp.Begin())
	if got := buf.String(); !strings.Contains(got, "level=debug event=stage.handle dur_ms=") {
		t.Fatalf("debug event of a span's end: %q", got)
	}
}

// TestSpanHandleAllocs: one run of a resolved span allocates nothing,
// with the registry disabled or enabled (logger off, as it is unless a
// binary asks for debug events).
func TestSpanHandleAllocs(t *testing.T) {
	r := NewRegistry()
	sp := r.Span("stage.alloc")
	for _, on := range []bool{false, true} {
		r.SetEnabled(on)
		sp.End(sp.Begin()) // the first enabled run registers the histogram
		if a := testing.AllocsPerRun(1000, func() { sp.End(sp.Begin()) }); a != 0 {
			t.Errorf("span run with the registry enabled=%v: %v allocs, want 0", on, a)
		}
	}
}

func TestQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", "", 1, 2, 4, 8)
	for i := 0; i < 100; i++ {
		h.Observe(1.5) // all in the (1,2] bucket
	}
	snap := r.Snapshot().Histograms[0]
	p50 := snap.Quantile(0.5)
	if p50 < 1 || p50 > 2 {
		t.Errorf("p50 = %g, want within (1,2]", p50)
	}
}

func TestLoggerFormat(t *testing.T) {
	var buf strings.Builder
	h := newHandler(&buf, slog.LevelInfo)
	if h.Enabled(context.Background(), slog.LevelDebug) {
		t.Error("debug event passes an info gate")
	}
	r := slog.NewRecord(time.Date(2026, 8, 5, 10, 0, 0, 0, time.UTC), slog.LevelInfo, "advisor.select", 0)
	r.Add("selector", "RLView", "views", 3, "utility", 1.25, "note", "two words",
		"detail", "a=b", "err", errors.New("disk full"), "empty", "", "mape", 0.646389123)
	if err := h.Handle(context.Background(), r); err != nil {
		t.Fatal(err)
	}

	got := buf.String()
	want := `ts=2026-08-05T10:00:00.000Z level=info event=advisor.select selector=RLView views=3 utility=1.25 note="two words"` +
		` detail="a=b" err="disk full" empty="" mape=0.646389` + "\n"
	if got != want {
		t.Errorf("log line:\n got %q\nwant %q", got, want)
	}
}

// TestLoggerSilentByDefault: with no sink attached the helpers emit
// nothing, and "off" gates even errors on an attached one.
func TestLoggerSilentByDefault(t *testing.T) {
	Error("nobody.listening", "k", "v") // must not panic, no writer
	if logger.Load().Enabled(context.Background(), slog.LevelError) {
		t.Error("the default logger should be off")
	}
	t.Cleanup(func() { LogTo(io.Discard, levelOff) })
	var buf strings.Builder
	off, err := ParseLevel("off")
	if err != nil {
		t.Fatal(err)
	}
	LogTo(&buf, off)
	Error("gated.event", "k", "v")
	LogTo(&buf, slog.LevelWarn)
	Info("gated.event")
	if buf.Len() != 0 {
		t.Errorf("gated events were written: %q", buf.String())
	}
	Warn("passing.event", "k", "v")
	if got := buf.String(); !strings.Contains(got, "level=warn event=passing.event k=v\n") {
		t.Errorf("warn event at a warn gate: %q", got)
	}
}

// TestFlagsStartChecksLevelBeforeBinding: a bad -log-level must fail
// before -obs-addr is bound — Start returns no handle, so a listener
// opened ahead of the error could never be closed.
func TestFlagsStartChecksLevelBeforeBinding(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	f := Flags{Addr: addr, LogLevel: "bogus"}
	if err := f.Start(io.Discard); err == nil || !strings.Contains(err.Error(), "unknown log level") {
		t.Fatalf("Start with a bogus level: %v", err)
	}
	ln, err = net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("Start left %s bound after failing: %v", addr, err)
	}
	ln.Close()
}

func TestHandlerServesMetricsExpvarPprof(t *testing.T) {
	r := NewRegistry()
	r.Counter("http.test.count", "a counter").Add(7)
	r.Gauge("http.test.gauge", "a gauge").Set(1.5)
	r.Histogram("http.test.hist", "a histogram", 0.1, 1).Observe(0.5)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	if !r.Enabled() {
		t.Error("mounting the handler should enable the registry")
	}

	body := httpGet(t, srv.URL+"/metrics")
	for _, want := range []string{
		"# TYPE autoview_http_test_count_total counter",
		"autoview_http_test_count_total 7",
		"autoview_http_test_gauge 1.5",
		`autoview_http_test_hist_bucket{le="1"} 1`,
		`autoview_http_test_hist_bucket{le="+Inf"} 1`,
		"autoview_http_test_hist_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}

	if vars := httpGet(t, srv.URL+"/debug/vars"); !strings.Contains(vars, `"memstats"`) {
		t.Error("/debug/vars missing the runtime's memstats")
	}
	if idx := httpGet(t, srv.URL+"/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Error("/debug/pprof/ index missing profiles")
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, res.StatusCode)
	}
	return string(b)
}

// BenchmarkObsOverhead guards the disabled-path cost of instrumentation
// left in hot code: with no sink attached each operation must stay within
// a few nanoseconds (the acceptance bar is < 5 ns/op for the span path).
func BenchmarkObsOverhead(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench.count", "")
	g := r.Gauge("bench.gauge", "")
	fn := func() {}
	b.Run("time-disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.Time("bench.span", fn)
		}
	})
	b.Run("startspan-disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.StartSpan("bench.span")()
		}
	})
	sp := r.Span("bench.span")
	b.Run("span-disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sp.End(sp.Begin())
		}
	})
	b.Run("log-disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Info("bench.event", "k", 1)
		}
	})
	b.Run("counter-inc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("gauge-set", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.Set(1)
		}
	})
	b.Run("time-enabled", func(b *testing.B) {
		r.SetEnabled(true)
		defer r.SetEnabled(false)
		for i := 0; i < b.N; i++ {
			r.Time("bench.span", fn)
		}
	})
	b.Run("span-enabled", func(b *testing.B) {
		r.SetEnabled(true)
		defer r.SetEnabled(false)
		for i := 0; i < b.N; i++ {
			sp.End(sp.Begin())
		}
	})
}

func TestServeHandleShutdown(t *testing.T) {
	r := NewRegistry()
	r.Counter("shutdown.test.count", "a counter").Inc()
	h, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	if h.Addr() == "" {
		t.Fatal("no bound address")
	}
	if body := httpGet(t, "http://"+h.Addr()+"/metrics"); !strings.Contains(body, "autoview_shutdown_test_count_total 1") {
		t.Errorf("metrics before shutdown missing counter:\n%s", body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := h.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Idempotent, and the listener is really closed.
	if err := h.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	if _, err := http.Get("http://" + h.Addr() + "/metrics"); err == nil {
		t.Error("endpoint still reachable after shutdown")
	}
}

func TestNilHandleIsSafe(t *testing.T) {
	var h *Handle
	if h.Addr() != "" {
		t.Error("nil handle has an address")
	}
	if err := h.Shutdown(context.Background()); err != nil {
		t.Errorf("nil shutdown: %v", err)
	}
}

// TestRuntimeMetricsReadAtSnapshot: the runtime/metrics bridge fills its
// counters and gauges when the Default registry is snapshotted, and
// they track the runtime: a forced GC moves the cycle count, and an
// allocation the allocated bytes.
func TestRuntimeMetricsReadAtSnapshot(t *testing.T) {
	value := func(s Snapshot, name string) float64 {
		for _, c := range s.Counters {
			if c.Name == name {
				return float64(c.Value)
			}
		}
		for _, g := range s.Gauges {
			if g.Name == name {
				return g.Value
			}
		}
		t.Fatalf("%s is not in the Default snapshot", name)
		return 0
	}
	before := Default.Snapshot()
	sink = make([]byte, 1<<20)
	runtime.GC()
	after := Default.Snapshot()
	if d := value(after, "runtime.gc.cycles") - value(before, "runtime.gc.cycles"); d < 1 {
		t.Errorf("runtime.gc.cycles moved by %v across a forced GC", d)
	}
	if d := value(after, "runtime.heap.alloc.bytes") - value(before, "runtime.heap.alloc.bytes"); d < 1<<20 {
		t.Errorf("runtime.heap.alloc.bytes moved by %v across a 1 MiB allocation", d)
	}
	for _, name := range []string{"runtime.heap.live.bytes", "runtime.goroutines"} {
		if v := value(after, name); v <= 0 {
			t.Errorf("%s = %v", name, v)
		}
	}
	if v := value(after, "runtime.gc.cpu.seconds"); v < 0 {
		t.Errorf("runtime.gc.cpu.seconds = %v", v)
	}
}

var sink []byte
