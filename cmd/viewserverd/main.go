// Command viewserverd is the online view-advisor daemon: it loads a
// workload, bootstraps the pipeline (training the W-D cost model and
// selecting an initial view set), and serves the internal/serve HTTP API
// until SIGINT/SIGTERM, at which point it drains in-flight micro-batches
// and exits cleanly.
//
// Usage:
//
//	viewserverd [-addr host:port] [-workload job|wk1|wk2]
//	            [-schema schema.json -queries queries.sql]
//	            [-estimator actual|optimizer|wd]
//	            [-selector localsearch|rlview|bigsub|iterview|topkfreq|topkover|topkben|topknorm]
//	            [-seed N] [-parallelism N] [-window N]
//	            [-advise-interval DUR] [-utility-tolerance F]
//	            [-cache-size N]
//	            [-data-dir DIR] [-fsync always|interval|off] [-snapshot-every N]
//	            [-log-level debug|info|warn|error]
//
// With -data-dir the advisor state is durable: ingested queries and
// published generations (W-D weights with the view set they judged) are
// logged to a write-ahead log with periodic snapshots, and a restart (even after a crash or kill -9)
// recovers the rolling window, view set, and W-D model byte-identically
// instead of re-bootstrapping. While recovery replays, /v1/healthz
// reports state "recovering" with 503 and every other endpoint answers
// 503, flipping to "ready" when replay finishes.
//
// The /metrics, /debug/vars and /debug/pprof endpoints are mounted on
// the same listener as the /v1 API, so one address exposes both the
// service and its observability surface (see SERVING.md and
// OBSERVABILITY.md).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"autoview/internal/core"
	"autoview/internal/durable"
	"autoview/internal/obs"
	"autoview/internal/serve"
	"autoview/internal/workload"
)

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8094", "address to serve the /v1 API and /metrics on")
	flag.StringVar(&o.workload, "workload", "wk1", "built-in workload: job, wk1, wk2")
	flag.StringVar(&o.schemaPath, "schema", "", "JSON schema file for a custom workload (with -queries)")
	flag.StringVar(&o.queriesPath, "queries", "", "SQL file with the custom workload's queries")
	flag.StringVar(&o.estimator, "estimator", "wd", "benefit estimator: actual, optimizer, wd")
	flag.StringVar(&o.selector, "selector", defaultSelector, "view selector: localsearch, rlview, bigsub, iterview, topkfreq, topkover, topkben, topknorm")
	flag.Int64Var(&o.seed, "seed", 1, "random seed")
	flag.IntVar(&o.parallelism, "parallelism", 0, "workers for micro-batched inference and, inside every advise cycle, W-D retraining, pair measurement and the RLView action sweep (0 = NumCPU for inference and the bootstrap, NumCPU-1 (at least 1) for every later cycle; 1 = serial)")
	flag.IntVar(&o.windowSize, "window", 512, "rolling workload window capacity (queries)")
	flag.DurationVar(&o.adviseEvery, "advise-interval", 0, "background re-advise period (0 disables the loop)")
	flag.Float64Var(&o.utilityTol, "utility-tolerance", 0, "relative utility regression tolerated before a rotation rolls back")
	flag.IntVar(&o.cacheSize, "cache-size", 0, "fingerprint-keyed estimate cache entries (0 = default 4096, negative disables)")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "bound on the shutdown drain")
	flag.StringVar(&o.dataDir, "data-dir", "", "durable state directory: WAL + snapshots + model checkpoints (empty disables durability)")
	flag.StringVar(&o.fsync, "fsync", "interval", "WAL fsync policy: always, interval, off")
	flag.IntVar(&o.snapshotEvery, "snapshot-every", 0, "WAL records between automatic snapshots (0 = default 1024, negative disables)")
	flag.StringVar(&o.logLevel, "log-level", "info", "structured event level on stderr: debug, info, warn, error")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "viewserverd:", err)
		os.Exit(1)
	}
}

// defaultSelector is the serving default: local search reaches the exact
// optimum on every tournament rung (EXPERIMENTS.md "Tournament") in
// milliseconds, so the daemon does not pay RLView's training per advise
// cycle. viewgen keeps rlview, the paper's reproduced algorithm.
const defaultSelector = "localsearch"

type options struct {
	addr          string
	workload      string
	schemaPath    string
	queriesPath   string
	estimator     string
	selector      string
	seed          int64
	parallelism   int
	windowSize    int
	adviseEvery   time.Duration
	utilityTol    float64
	cacheSize     int
	drainTimeout  time.Duration
	dataDir       string
	fsync         string
	snapshotEvery int
	logLevel      string
}

func run(o options) error {
	// Catch SIGINT/SIGTERM before the port is bound: readiness is
	// reported from inside Start, so a supervisor can signal the moment
	// /v1/healthz turns 200 — or earlier, mid-bootstrap — and must get
	// the drain below, never the default signal action.
	sigCtx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stopSignals()

	// The serve package mounts the obs endpoint itself, so this only
	// enables the registry and the event logger (no separate listener).
	if err := (&obs.Flags{Stats: true, LogLevel: o.logLevel}).Start(os.Stderr); err != nil {
		return err
	}

	w, err := workload.Open(o.workload, o.schemaPath, o.queriesPath)
	if err != nil {
		return err
	}
	coreCfg := core.ConfigFor(w.Name)
	coreCfg.Seed = o.seed
	coreCfg.Parallelism = o.parallelism
	if coreCfg.Estimator, err = core.ParseEstimator(o.estimator); err != nil {
		return err
	}
	if coreCfg.Selector, err = core.ParseSelector(o.selector); err != nil {
		return err
	}

	// Bind the listener before bootstrap/recovery so /v1/healthz answers
	// (503, state "recovering") the moment the port is up; every other
	// endpoint is readiness-gated until Start finishes.
	srv := serve.NewServer(w, coreCfg, serve.Config{
		Parallelism:      o.parallelism,
		WindowSize:       o.windowSize,
		AdviseInterval:   o.adviseEvery,
		UtilityTolerance: o.utilityTol,
		CacheSize:        o.cacheSize,
	})
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return fmt.Errorf("listen on %s: %w", o.addr, err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	}()
	fmt.Fprintf(os.Stderr, "viewserverd: listening on http://%s (recovering)\n", ln.Addr())

	var dstore *durable.Store
	if o.dataDir != "" {
		policy, err := durable.ParseFsync(o.fsync)
		if err != nil {
			_ = httpSrv.Close()
			return err
		}
		dstore, err = durable.Open(durable.Options{
			Dir:           o.dataDir,
			Fsync:         policy,
			SnapshotEvery: o.snapshotEvery,
			WindowCap:     o.windowSize,
		})
		if err != nil {
			_ = httpSrv.Close()
			return fmt.Errorf("open data dir %s: %w", o.dataDir, err)
		}
		if dstore.Recovered() != nil {
			fmt.Fprintf(os.Stderr, "viewserverd: recovering durable state from %s\n", o.dataDir)
		} else {
			fmt.Fprintf(os.Stderr, "viewserverd: fresh data dir %s, bootstrapping on workload %s (%d queries, estimator %s, selector %v)\n",
				o.dataDir, w.Name, len(w.Queries), coreCfg.Estimator, coreCfg.Selector)
		}
	} else {
		fmt.Fprintf(os.Stderr, "viewserverd: bootstrapping on workload %s (%d queries, estimator %s, selector %v)\n",
			w.Name, len(w.Queries), coreCfg.Estimator, coreCfg.Selector)
	}

	start := time.Now()
	if err := srv.Start(sigCtx, dstore); err != nil {
		_ = httpSrv.Close()
		if dstore != nil {
			_ = dstore.Close()
		}
		return fmt.Errorf("start: %w", err)
	}
	fmt.Fprintf(os.Stderr, "viewserverd: ready in %v, serving /v1 API and /metrics on http://%s\n",
		time.Since(start).Round(time.Millisecond), ln.Addr())

	select {
	case <-sigCtx.Done():
		fmt.Fprintf(os.Stderr, "viewserverd: signal received, draining (timeout %v)\n", o.drainTimeout)
	case err := <-errCh:
		// Serve only reports before Shutdown on a real listener failure;
		// still drain so accepted ingest reaches the window and the WAL.
		_ = srv.Close(context.Background())
		if dstore != nil {
			_ = dstore.Close()
		}
		return fmt.Errorf("serve on %s: %w", o.addr, err)
	}

	// Stop the listener first so in-flight handlers can still collect
	// their micro-batch results, then drain the serve pipeline. A
	// shutdown timeout must NOT skip the drain: srv.Close is what flushes
	// the queued ingest into the window and the WAL, so it always runs
	// (and likewise the durable store always closes).
	ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	shutdownErr := httpSrv.Shutdown(ctx)
	drainErr := srv.Close(ctx)
	var storeErr error
	if dstore != nil {
		storeErr = dstore.Close()
	}
	if shutdownErr != nil {
		return fmt.Errorf("http shutdown: %w", shutdownErr)
	}
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	if storeErr != nil {
		return fmt.Errorf("close data dir: %w", storeErr)
	}
	if err := <-errCh; err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "viewserverd: drained cleanly")
	return nil
}
