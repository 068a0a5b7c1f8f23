// Package serve is the online view-advisor service: a long-running HTTP
// front end over the batch pipeline in internal/core. Where
// core.Advisor.Run processes one workload and exits, a serve.Server
// ingests a query stream into a bounded rolling window, answers W-D
// cost-estimate requests through a micro-batching inference scheduler,
// and periodically re-runs view selection over the window, rotating in a
// versioned, fingerprint-sorted view set (with rollback when the new set
// scores below the active one on the same window).
//
// Endpoints (all JSON; see SERVING.md for the full reference):
//
//	POST /v1/estimate     batched A(q|v) estimates for (query, view) pairs
//	POST /v1/queries      ingest queries into the rolling window
//	POST /v1/advise       trigger a re-advise cycle
//	GET  /v1/views        the current versioned view set (+DDL)
//	GET  /v1/healthz      liveness and serving state
//	POST /v1/admin/model  hot-reload W-D weights from a checkpoint
//	GET  /metrics ...     the internal/obs endpoint, mounted at the root
//
// Robustness is part of the contract: requests are bounded (body size,
// pairs per request, per-request timeout), queues are bounded with
// load-shedding (HTTP 429), errors are structured JSON, and Close drains
// in-flight batches before returning.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"autoview/internal/core"
	"autoview/internal/durable"
	"autoview/internal/engine"
	"autoview/internal/obs"
	"autoview/internal/plan"
	"autoview/internal/widedeep"
	"autoview/internal/workload"
)

// Serving metrics (see OBSERVABILITY.md): request traffic accumulates in
// counters, the current serving state lands in gauges.
var (
	obsRequests   = obs.Default.Counter("serve.http.requests", "HTTP requests received by the view-advisor service")
	obsErrors     = obs.Default.Counter("serve.http.errors", "HTTP error responses (4xx/5xx) sent by the service")
	obsShed       = obs.Default.Counter("serve.shed", "requests shed with 429 because a bounded queue was full")
	obsTimeouts   = obs.Default.Counter("serve.timeouts", "estimate requests that hit their per-request timeout")
	obsPairs      = obs.Default.Counter("serve.estimate.pairs", "(query, view) pairs estimated")
	obsIngested   = obs.Default.Counter("serve.ingest.queries", "queries accepted into the ingest queue")
	obsCycles     = obs.Default.Counter("serve.advise.cycles", "re-advise cycles completed")
	obsSwaps      = obs.Default.Counter("serve.advise.swaps", "view-set rotations that swapped in a new version")
	obsRollbacks  = obs.Default.Counter("serve.advise.rollbacks", "candidate view sets rejected for scoring below the active set on the cycle's window")
	obsReloads    = obs.Default.Counter("serve.model.reloads", "W-D model hot-reloads via the admin endpoint")
	obsViewsVer   = obs.Default.Gauge("serve.views.version", "version of the active view set")
	obsViewsCount = obs.Default.Gauge("serve.views.count", "views in the active view set")
	obsUtility    = obs.Default.Gauge("serve.advise.utility", "estimated utility of the active view set ($)")
	obsModelVer   = obs.Default.Gauge("serve.model.version", "version of the active W-D model")
)

// Config tunes the service. The zero value selects sensible defaults via
// withDefaults; Parallelism follows the pipeline-wide convention (0 means
// runtime.NumCPU(), 1 runs serially).
type Config struct {
	// Parallelism sizes the micro-batcher's inference worker pool.
	Parallelism int
	// MaxBatch caps the (query, view) pairs coalesced into one
	// micro-batch. Default 32.
	MaxBatch int
	// QueueDepth bounds the estimate request queue; a full queue sheds
	// with 429. Default 256.
	QueueDepth int
	// IngestQueue bounds the query ingest queue; a full queue sheds with
	// 429. Default 1024.
	IngestQueue int
	// WindowSize is the rolling workload window capacity. Default 512.
	WindowSize int
	// MaxPairs caps pairs per estimate request (400 above). Default 64.
	MaxPairs int
	// MaxQueries caps queries per ingest request (400 above). Default 256.
	MaxQueries int
	// RequestTimeout bounds one estimate request's wait for its batch
	// results (504 past it). Default 10s.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies (413 above). Default 1 MiB.
	MaxBodyBytes int64
	// AdviseInterval is the background re-advise period; 0 disables the
	// loop (selection then runs only via POST /v1/advise).
	AdviseInterval time.Duration
	// UtilityTolerance is the relative regression tolerated before a
	// rotation rolls back: a candidate set is rejected when its utility
	// is below (1-UtilityTolerance) times the active set's. Default 0
	// (any regression rolls back).
	UtilityTolerance float64
	// CacheSize bounds each model generation's fingerprint-keyed
	// estimate cache (the plan cache shares the bound). 0 selects the
	// default 4096; negative disables caching entirely.
	CacheSize int
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.IngestQueue <= 0 {
		c.IngestQueue = 1024
	}
	if c.WindowSize <= 0 {
		c.WindowSize = 512
	}
	if c.MaxPairs <= 0 {
		c.MaxPairs = 64
	}
	if c.MaxQueries <= 0 {
		c.MaxQueries = 256
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.UtilityTolerance < 0 {
		c.UtilityTolerance = 0
	}
	if c.CacheSize == 0 {
		c.CacheSize = 4096
	}
	return c
}

// generation is one published serving state: W-D weights, the cost
// scale that maps their predictions back to dollars, the model version
// replies name, the estimates the weights computed, their durable
// checkpoint, and the view set they judged. publish swaps it as one unit.
// An estimate depends only on the two SQL texts and the weights, so new
// weights start an empty cache and kept weights keep theirs.
type generation struct {
	m       *widedeep.Model // nil when the estimator trains no model
	scale   float64         // predictions are divided by this (1 when unscaled)
	version int
	est     *cache[float64]     // nil when caching is disabled
	ckpt    durable.ModelRecord // zero without a durable checkpoint
	views   *ViewSet            // nil until a cycle finds candidates
}

// ingestMsg carries parsed plans (tagged with the SQL they were parsed
// from, which is what the WAL persists) to the window goroutine; done
// (when non-nil) is closed after the append, which gives /v1/advise its
// ingest-before-snapshot barrier.
type ingestMsg struct {
	plans []*plan.Node
	sqls  []string
	done  chan struct{}
}

// Server is the online view advisor. Build one with New (or NewServer +
// Start when the handler must be live — answering /v1/healthz with
// "recovering" — while durable state replays), mount Handler on an
// http.Server, and Close it to drain.
type Server struct {
	cfg Config

	wl     *workload.Workload
	adv    *core.Advisor
	window *core.Window

	// dur is the durable store (nil when running without -data-dir).
	// durMu makes each state mutation atomic with its WAL append, so a
	// snapshot never captures a mutation without the record that caused
	// it (or vice versa). The estimate path never touches either.
	dur   *durable.Store
	durMu sync.Mutex

	// ready flips once Start has recovered (or bootstrapped) the serving
	// state; until then every endpoint but /v1/healthz answers 503.
	ready atomic.Bool

	// gen is the served state, never nil: NewServer stores the empty
	// generation and restore the recovered one; after that publish is
	// its only writer.
	gen     atomic.Pointer[generation]
	started time.Time

	batcher *batcher
	ingest  chan ingestMsg

	// planCache maps one exact fingerprint to its parsed plan +
	// precomputed features (plans depend only on SQL text and the
	// immutable catalog); nil (disabled) when CacheSize < 0. Estimates
	// are cached per generation (generation.est).
	planCache *cache[*planEntry]

	// adviseMu serializes re-advise cycles (the advisor mutates its
	// store); TryLock turns concurrent triggers into 409.
	adviseMu sync.Mutex

	mux *http.ServeMux

	closing    atomic.Bool
	ingestOpen sync.WaitGroup // in-flight ingest handler sends
	bg         sync.WaitGroup // ingester + advise loop
	stopBg     chan struct{}
}

// New builds and starts a server in one call (NewServer + Start with no
// durable store): the rolling window is seeded with the workload's
// queries and the bootstrap advise cycle runs synchronously, so the
// service returns with a trained W-D model (when coreCfg.Estimator is
// EstimatorWideDeep) and view set version 1. Call Close to drain.
func New(w *workload.Workload, coreCfg core.Config, cfg Config) (*Server, error) {
	s := NewServer(w, coreCfg, cfg)
	if err := s.Start(context.Background(), nil); err != nil {
		return nil, err
	}
	return s, nil
}

// NewServer builds a server without starting it: the HTTP handler is
// live (so /v1/healthz can report "recovering" while a durable data
// directory replays) but the window is empty, no model or view set
// exists, and every other endpoint answers 503 until Start completes.
func NewServer(w *workload.Workload, coreCfg core.Config, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		wl:      w,
		adv:     core.NewAdvisor(w.Cat, engine.New(w.Populate()), coreCfg),
		window:  core.NewWindow(cfg.WindowSize),
		ingest:  make(chan ingestMsg, cfg.IngestQueue),
		stopBg:  make(chan struct{}),
		started: time.Now(),
	}
	s.gen.Store(new(generation))
	s.planCache = newCache[*planEntry](cfg.CacheSize, planCacheMetrics)
	s.batcher = newBatcher(cfg)
	s.mux = s.routes()
	return s
}

// Start brings a NewServer-built server into service. With a durable
// store holding recovered state, the window, view set, and model are
// restored from it (byte-identically — see internal/durable); with a
// fresh store the workload seed is logged as the first WAL record and
// the bootstrap advise cycle publishes and logs the first generation.
// With no store (dstore nil) the seed + bootstrap path runs without
// durability.
// The background loops start and the server reports ready on return.
func (s *Server) Start(ctx context.Context, dstore *durable.Store) error {
	s.dur = dstore
	if dstore != nil && dstore.Recovered() != nil {
		if err := s.restore(dstore.Recovered()); err != nil {
			return err
		}
	} else {
		seedSQLs := make([]string, len(s.wl.Queries))
		for i := range s.wl.Queries {
			seedSQLs[i] = s.wl.Queries[i].SQL
		}
		s.window.AppendTagged(s.wl.Plans(), seedSQLs)
		if s.dur != nil {
			if err := s.dur.AppendIngest(seedSQLs); err != nil {
				return fmt.Errorf("serve: log workload seed: %w", err)
			}
		}
		if _, err := s.advise(ctx, "bootstrap", false); err != nil {
			return fmt.Errorf("serve: bootstrap advise: %w", err)
		}
	}

	s.bg.Add(1)
	go s.ingester()
	if s.cfg.AdviseInterval > 0 {
		s.bg.Add(1)
		go s.adviseLoop()
	}
	s.ready.Store(true)
	return nil
}

// Handler returns the service's HTTP handler (the /v1 API plus the
// internal/obs endpoint mounted at the root).
func (s *Server) Handler() http.Handler { return s.mux }

// ingester is the single consumer of the bounded ingest queue: it
// appends parsed plans to the rolling window in arrival order and logs
// each batch to the WAL — both under durMu, so a snapshot can never
// capture the window mutation without its record. Ranging over the
// channel means a graceful Close drains every accepted batch into the
// window and the log before the server reports drained.
func (s *Server) ingester() {
	defer s.bg.Done()
	for msg := range s.ingest {
		if len(msg.plans) > 0 {
			s.durMu.Lock()
			s.window.AppendTagged(msg.plans, msg.sqls)
			if s.dur != nil {
				if err := s.dur.AppendIngest(msg.sqls); err != nil {
					obs.Error("serve.durable", "event", "ingest_record_failed", "err", err)
				}
			}
			s.durMu.Unlock()
		}
		if msg.done != nil {
			close(msg.done)
		}
		s.maybeSnapshot()
	}
}

// sendIngest places msg on the bounded ingest queue. Non-blocking sends
// (the ingest handler) shed with errQueueFull when the queue is full;
// blocking sends (the advise barrier) wait for room or shutdown. The
// ingestOpen group lets Close wait until no sender is mid-flight before
// closing the channel.
func (s *Server) sendIngest(msg ingestMsg, block bool) error {
	s.ingestOpen.Add(1)
	defer s.ingestOpen.Done()
	if s.closing.Load() {
		return errShuttingDown
	}
	if block {
		select {
		case s.ingest <- msg:
			return nil
		case <-s.stopBg:
			return errShuttingDown
		}
	}
	select {
	case s.ingest <- msg:
		return nil
	default:
		return errQueueFull
	}
}

// adviseLoop periodically re-runs selection over the rolling window.
func (s *Server) adviseLoop() {
	defer s.bg.Done()
	ticker := time.NewTicker(s.cfg.AdviseInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stopBg:
			return
		case <-ticker.C:
			ctx, cancel := context.WithTimeout(context.Background(), s.cfg.AdviseInterval)
			res, err := s.advise(ctx, "periodic", false)
			cancel()
			if err != nil {
				obs.Warn("serve.advise.loop", "err", err)
				continue
			}
			obs.Info("serve.advise.loop", "version", res.Version, "swapped", res.Swapped,
				"rolled_back", res.RolledBack, "views", res.Views, "window", res.Window)
		}
	}
}

// Close gracefully stops the server: new work is rejected with 503,
// the ingest queue is drained into the window (and the WAL), the
// batcher finishes every queued estimate, the background loops exit,
// and — when running durably — the WAL is flushed and a final snapshot
// is written so a restart recovers this exact state with no replay.
// The caller is responsible for shutting down its http.Server first (or
// concurrently) so in-flight handlers can still collect their batch
// results. Close is bounded by ctx only for the batcher drain; queue
// consumers always finish their queued work.
func (s *Server) Close(ctx context.Context) error {
	if s.closing.Swap(true) {
		return nil // already closing
	}
	close(s.stopBg)
	s.ingestOpen.Wait() // no handler is mid-send on the ingest queue
	close(s.ingest)
	err := s.batcher.close(ctx)
	s.bg.Wait()
	if s.dur != nil {
		if serr := s.dur.Sync(); serr != nil {
			err = errors.Join(err, fmt.Errorf("serve: drain WAL: %w", serr))
		}
		if snapErr := s.writeSnapshot(); snapErr != nil {
			err = errors.Join(err, fmt.Errorf("serve: drain snapshot: %w", snapErr))
		}
	}
	obs.Info("serve.close", "drained", err == nil)
	return err
}
