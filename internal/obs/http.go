package obs

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
)

// Handler returns the observability endpoint:
//
//	/metrics      Prometheus text exposition of the registry
//	/debug/vars   expvar JSON: the runtime's cmdline and memstats
//	/debug/pprof  net/http/pprof profiles
//
// Mounting the handler also enables the registry, so spans start timing
// as soon as a sink exists.
func (r *Registry) Handler() http.Handler {
	r.SetEnabled(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.Snapshot().WritePrometheus(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		_, _ = fmt.Fprint(w, "autoview observability endpoint\n\n/metrics\n/debug/vars\n/debug/pprof/\n")
	})
	return mux
}

// Handle is a running observability HTTP server. The zero of the type is
// a nil *Handle, which every method tolerates, so callers that serve
// conditionally (an empty -obs-addr) can hold one handle unconditionally.
type Handle struct {
	addr string
	srv  *http.Server
	done chan struct{}
}

// Addr returns the bound address ("" on a nil handle).
func (h *Handle) Addr() string {
	if h == nil {
		return ""
	}
	return h.addr
}

// Shutdown gracefully stops the server: it stops accepting connections
// and waits for in-flight requests (scrapes, profile downloads) to
// finish or ctx to expire, whichever comes first. Safe on a nil handle
// and idempotent.
func (h *Handle) Shutdown(ctx context.Context) error {
	if h == nil {
		return nil
	}
	err := h.srv.Shutdown(ctx)
	<-h.done // Serve goroutine has returned; its error (if any) is logged
	return err
}

// Serve binds addr (e.g. "localhost:6060" or ":0"), serves the registry's
// Handler on it from a background goroutine, and returns a Handle exposing
// the bound address and graceful Shutdown. Binaries wire this to their
// -obs-addr flag; short-lived ones may simply never call Shutdown.
func Serve(addr string, r *Registry) (*Handle, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	h := &Handle{
		addr: ln.Addr().String(),
		srv:  &http.Server{Handler: r.Handler()},
		done: make(chan struct{}),
	}
	go func() {
		defer close(h.done)
		if err := h.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			Error("obs.serve", "addr", h.addr, "err", err.Error())
		}
	}()
	return h, nil
}

// Flags is the observability command-line surface shared by the cmd/
// binaries: -stats, -obs-addr and -log-level (OBSERVABILITY.md).
type Flags struct {
	Stats    bool   // print the registry snapshot after the run
	Addr     string // serve the HTTP endpoint here; empty serves nothing
	LogLevel string // event level; empty leaves the logger silent
}

// Register declares the three flags on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.BoolVar(&f.Stats, "stats", false, "print the observability registry snapshot after the run")
	fs.StringVar(&f.Addr, "obs-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
	fs.StringVar(&f.LogLevel, "log-level", "", "stream structured events to stderr at this level: debug, info, warn, error")
}

// Start applies the flags: it enables the default registry when Stats or
// Addr is set, serves the HTTP endpoint on Addr for the rest of the
// process (reporting the bound address on w), and streams events to w at
// LogLevel. The level is checked before the address is bound, so an
// error never leaves a listener behind.
func (f *Flags) Start(w io.Writer) error {
	level, err := ParseLevel(f.LogLevel)
	if err != nil {
		return err
	}
	if f.Stats || f.Addr != "" {
		Enable()
	}
	if f.Addr != "" {
		h, err := Serve(f.Addr, Default)
		if err != nil {
			return err
		}
		// w is the process's diagnostic stream; a failed write has
		// nowhere to be reported.
		_, _ = fmt.Fprintf(w, "observability endpoint on http://%s\n", h.Addr())
	}
	LogTo(w, level)
	return nil
}

// Report prints the registry snapshot to w when -stats was given.
func (f *Flags) Report(w io.Writer) {
	if f.Stats {
		_, _ = fmt.Fprint(w, "\nobservability snapshot:\n", Default.Snapshot().Text())
	}
}
