// Package serve is the online view-advisor service: a long-running HTTP
// front end over the batch pipeline in internal/core. Where
// core.Advisor.Run processes one workload and exits, a serve.Server
// ingests a query stream into a bounded rolling window, answers W-D
// cost-estimate requests on the W-D model one batch at a time, and
// periodically re-runs view selection over the window, rotating in a
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
// pairs per request, per-request timeout), the requests waiting to run
// inference are bounded with load-shedding (HTTP 429), errors are
// structured JSON, an ingest is in the window (and the WAL) before its
// 202, and an estimate the server accepted still answers across Close.
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
	"autoview/internal/featenc"
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
	obsShed       = obs.Default.Counter("serve.shed", "estimate requests shed with 429 because QueueDepth requests were already waiting for the inference slot")
	obsTimeouts   = obs.Default.Counter("serve.timeouts", "estimate requests that hit their per-request timeout waiting for the inference slot")
	obsPairs      = obs.Default.Counter("serve.estimate.pairs", "(query, view) pairs estimated")
	obsIngested   = obs.Default.Counter("serve.ingest.queries", "queries appended to the rolling window (and the WAL, when durable) before their 202")
	obsCycles     = obs.Default.Counter("serve.advise.cycles", "re-advise cycles completed")
	obsSwaps      = obs.Default.Counter("serve.advise.swaps", "view-set rotations that swapped in a new version")
	obsRollbacks  = obs.Default.Counter("serve.advise.rollbacks", "candidate view sets rejected for scoring below the active set on the cycle's window")
	obsReloads    = obs.Default.Counter("serve.model.reloads", "W-D model hot-reloads via the admin endpoint")
	obsViewsVer   = obs.Default.Gauge("serve.views.version", "version of the active view set")
	obsViewsCount = obs.Default.Gauge("serve.views.count", "views in the active view set")
	obsUtility    = obs.Default.Gauge("serve.advise.utility", "estimated utility of the active view set ($)")
	obsModelVer   = obs.Default.Gauge("serve.model.version", "version of the active W-D model")

	// The inference slot: each PredictBatch ticks the batch counter and
	// records its pairs, and the requests waiting for the slot are the
	// queue gauge. The wait itself is the serve.batch.wait span.
	obsBatches    = obs.Default.Counter("serve.batch.count", "PredictBatch runs, one per estimate request with cache misses")
	obsBatchSize  = obs.Default.Histogram("serve.batch.size", "(query, view) pairs per PredictBatch run", 1, 2, 4, 8, 16, 32, 64, 128)
	obsQueueDepth = obs.Default.Gauge("serve.batch.queue", "estimate requests waiting for the inference slot")

	// The estimate path's spans, resolved once.
	spFingerprint = obs.Default.Span("serve.fingerprint")
	spBatchWait   = obs.Default.Span("serve.batch.wait")
	spBatch       = obs.Default.Span("serve.batch")
)

// errShuttingDown is the ingest path's answer once Close has begun
// (HTTP 503 shutting_down).
var errShuttingDown = errors.New("serve: shutting down")

// Config tunes the service. The zero value selects sensible defaults via
// withDefaults. Inference takes its worker count from the advisor's
// core.Config.Parallelism.
type Config struct {
	// QueueDepth bounds the estimate requests waiting for the inference
	// slot; one more sheds with 429. Default 256.
	QueueDepth int
	// WindowSize is the rolling workload window capacity. Default 512.
	WindowSize int
	// MaxPairs caps pairs per estimate request (400 above). Default 64.
	MaxPairs int
	// MaxQueries caps queries per ingest request (400 above). Default 256.
	MaxQueries int
	// RequestTimeout bounds one estimate request's wait for the
	// inference slot (504 past it). Default 10s.
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
	// estimate cache (the plan, template and text caches share the
	// bound, and it sizes the text cache's admission table). 0 selects
	// the default 4096; negative disables all four caches.
	CacheSize int
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
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
	est     *cache[estEntry]    // nil when caching is disabled
	ckpt    durable.ModelRecord // zero without a durable checkpoint
	views   *ViewSet            // nil until a cycle finds candidates
}

// store is the part of *durable.Store the server uses: the seam a test
// wraps to crash the process at a chosen record.
type store interface {
	AppendIngest(sqls []string) error
	AppendGeneration(rec durable.GenerationRecord) error
	Sync() error
	ShouldSnapshot() bool
	WriteSnapshot(snap *durable.Snapshot) error
	LastLSN() uint64
	Dir() string
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
	dur   store
	durMu sync.Mutex
	// logged is the last generation the WAL holds whole — its
	// checkpoint saved and its record appended — or the recovered one
	// (at first the empty one): what a snapshot records. Guarded by
	// durMu.
	logged *generation

	// ready flips once Start has recovered (or bootstrapped) the serving
	// state; until then every endpoint but /v1/healthz answers 503.
	ready atomic.Bool

	// gen is the served state, never nil: NewServer stores the empty
	// generation and restore the recovered one; after that publish is
	// its only writer.
	gen     atomic.Pointer[generation]
	started time.Time

	// infer is the inference slot: a handler with estimate-cache misses
	// sends into it before its PredictBatch and receives after, so one
	// batch is in flight and blocked senders queue FIFO. waiting counts
	// the handlers blocked on the send; past QueueDepth a request sheds.
	infer   chan struct{}
	waiting atomic.Int64

	// planCache maps one exact fingerprint to its plan's precomputed
	// features (plans depend only on SQL text and the immutable
	// catalog), and tmplCache one template key to the features of the
	// first statement parsed with that template, which resolvePlan
	// re-binds; both nil (disabled) when CacheSize < 0. Estimates are
	// cached per generation (generation.est).
	planCache *cache[*featenc.PlanFeat]
	tmplCache *cache[*featenc.PlanFeat]
	// textCache maps the digest of a SQL text's bytes to its fingerprint
	// (see fingerprint); nil when CacheSize < 0. An FP depends only on
	// the bytes, so it is never invalidated.
	textCache *textCache

	// adviseMu serializes re-advise cycles (the advisor mutates its
	// store); TryLock turns concurrent triggers into 409.
	adviseMu sync.Mutex

	mux *http.ServeMux

	closing atomic.Bool
	bg      sync.WaitGroup // advise loop
	stopBg  chan struct{}
}

// New builds and starts a server in one call (NewServer + Start with no
// durable store): the rolling window is seeded with the workload's
// queries and the bootstrap advise cycle runs synchronously, so the
// service returns with a trained W-D model (when coreCfg.Estimator is
// EstimatorWideDeep) and view set version 1. Call Close to drain.
func New(w *workload.Workload, coreCfg core.Config, cfg Config) (*Server, error) {
	s := NewServer(w, coreCfg, cfg)
	if err := s.Start(nil); err != nil {
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
		stopBg:  make(chan struct{}),
		started: time.Now(),
	}
	s.gen.Store(new(generation))
	s.logged = s.gen.Load()
	s.planCache = newCache[*featenc.PlanFeat](cfg.CacheSize, planCacheMetrics)
	s.tmplCache = newCache[*featenc.PlanFeat](cfg.CacheSize, tmplCacheMetrics)
	s.textCache = newTextCache(cfg.CacheSize)
	s.infer = make(chan struct{}, 1)
	s.mux = s.routes()
	return s
}

// Start brings a NewServer-built server into service. With a durable
// store holding recovered state, the window, view set, and model are
// restored from it (byte-identically — see internal/durable); with a
// fresh store the workload seed is logged as the first WAL record and
// the bootstrap advise cycle publishes and logs the first generation.
// With no store (dstore nil) the seed + bootstrap path runs without
// durability. Bootstrap runs to completion; it is not cancellable.
// The advise loop starts and the server reports ready on return.
func (s *Server) Start(dstore *durable.Store) error {
	if dstore == nil { // a nil *durable.Store must not become a non-nil store
		return s.start(nil, nil)
	}
	return s.start(dstore, dstore.Recovered())
}

// start is Start over any store; recovered is the state it holds, nil
// for none.
func (s *Server) start(d store, recovered *durable.Snapshot) error {
	s.dur = d
	if recovered != nil {
		if err := s.restore(recovered); err != nil {
			return err
		}
	} else {
		seedSQLs := make([]string, len(s.wl.Queries))
		for i := range s.wl.Queries {
			seedSQLs[i] = s.wl.Queries[i].SQL
		}
		if _, err := s.ingest(s.wl.Plans(), seedSQLs); err != nil {
			return fmt.Errorf("serve: log workload seed: %w", err)
		}
		if _, err := s.advise("bootstrap", false); err != nil {
			return fmt.Errorf("serve: bootstrap advise: %w", err)
		}
	}

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

// ingest appends one batch of parsed plans, tagged with the SQL they
// were parsed from (what the WAL persists), to the WAL and then to the
// rolling window, both under durMu: a snapshot never captures the window
// without the record, and a failed append (the WAL's error is sticky)
// leaves the window untouched. It returns the window length after the
// append. Close sets closing before its final snapshot takes durMu, so a
// batch either lands before that snapshot or gets errShuttingDown.
func (s *Server) ingest(plans []*plan.Node, sqls []string) (window int, err error) {
	s.durMu.Lock()
	switch {
	case s.closing.Load():
		err = errShuttingDown
	case s.dur != nil:
		err = s.dur.AppendIngest(sqls)
	}
	if err == nil {
		s.window.AppendTagged(plans, sqls)
		window = s.window.Len()
	}
	s.durMu.Unlock()
	if err == nil {
		s.maybeSnapshot()
	}
	return window, err
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
			res, err := s.advise("periodic", false)
			if err != nil {
				obs.Warn("serve.advise.loop", "err", err)
				continue
			}
			obs.Info("serve.advise.loop", "version", res.Version, "swapped", res.Swapped,
				"rolled_back", res.RolledBack, "views", res.Views, "window", res.Window)
		}
	}
}

// Close gracefully stops the server: new work is rejected with 503, the
// advise loop exits, and — when running durably — the WAL is flushed and
// a final snapshot is written so a restart recovers this exact state
// with no replay. Every ingest that replied 202 is already in the window
// and the WAL; one that reaches ingest after closing is set answers 503.
// An estimate already past the gate runs on its own handler and still
// answers; estimates touch no durable state, so waiting for them is the
// caller's http.Server.Shutdown, not Close. Nothing Close waits for
// takes a deadline, so ctx is not consulted.
func (s *Server) Close(context.Context) error {
	if s.closing.Swap(true) {
		return nil // already closing
	}
	close(s.stopBg)
	s.bg.Wait()
	var err error
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
