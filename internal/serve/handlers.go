package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"time"

	"autoview/internal/featenc"
	"autoview/internal/obs"
	"autoview/internal/plan"
	"autoview/internal/sqlparse"
	"autoview/internal/widedeep"
)

// apiError is the structured error envelope every endpoint returns.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorResponse struct {
	Error apiError `json:"error"`
}

// routes mounts the /v1 API over the internal/obs endpoint (so /metrics,
// /debug/vars and /debug/pprof ride on the same listener and the whole
// serving flow is scrapeable in one place).
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/", obs.Default.Handler())
	mux.HandleFunc("/v1/estimate", s.endpoint("serve.estimate", http.MethodPost, true, s.handleEstimate))
	mux.HandleFunc("/v1/queries", s.endpoint("serve.ingest", http.MethodPost, true, s.handleQueries))
	mux.HandleFunc("/v1/advise", s.endpoint("serve.advise.api", http.MethodPost, true, s.handleAdvise))
	mux.HandleFunc("/v1/views", s.endpoint("serve.views", http.MethodGet, true, s.handleViews))
	mux.HandleFunc("/v1/healthz", s.endpoint("serve.healthz", http.MethodGet, false, s.handleHealthz))
	mux.HandleFunc("/v1/admin/model", s.endpoint("serve.model.reload", http.MethodPost, true, s.handleReloadModel))
	return mux
}

// endpoint wraps a handler with the shared request surface: traffic
// counting, a span, the method check, the draining gate, and — when
// gated — the readiness gate (requests before Start finishes recovery
// answer 503). Only /v1/healthz is ungated: it must answer while durable
// state is still replaying, reporting state "recovering".
func (s *Server) endpoint(span, method string, gated bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		obsRequests.Inc()
		defer obs.StartSpan(span)()
		if r.Method != method {
			w.Header().Set("Allow", method)
			s.writeError(w, r, http.StatusMethodNotAllowed, "method_not_allowed",
				fmt.Sprintf("%s requires %s", r.URL.Path, method))
			return
		}
		if s.closing.Load() {
			s.writeError(w, r, http.StatusServiceUnavailable, "shutting_down", "server is draining")
			return
		}
		if gated && !s.ready.Load() {
			s.writeError(w, r, http.StatusServiceUnavailable, "recovering",
				"server is recovering durable state; poll /v1/healthz for readiness")
			return
		}
		h(w, r)
	}
}

// writeJSON sends v with the given status. Encode failures past the
// header can only be logged.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		obs.Error("serve.http.encode", "err", err)
	}
}

// writeError sends the structured error envelope and emits the obs
// event every error response carries.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, code, msg string) {
	obsErrors.Inc()
	obs.Warn("serve.http.error", "path", r.URL.Path, "status", status, "code", code, "detail", msg)
	s.writeJSON(w, status, errorResponse{Error: apiError{Code: code, Message: msg}})
}

// decodeJSON strictly decodes a bounded request body into dst: unknown
// fields, trailing data, and oversized bodies are all rejected. The
// returned status/code pair is ready for writeError.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, dst any) (int, string, error) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return http.StatusRequestEntityTooLarge, "body_too_large",
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit)
		}
		return http.StatusBadRequest, "bad_json", err
	}
	if dec.More() {
		return http.StatusBadRequest, "bad_json", errors.New("trailing data after JSON body")
	}
	return 0, "", nil
}

// --- POST /v1/estimate -------------------------------------------------

type estimatePair struct {
	Query string `json:"query"`
	View  string `json:"view"`
}

type estimateRequest struct {
	Pairs []estimatePair `json:"pairs"`
}

type estimateResponse struct {
	Estimates    []float64 `json:"estimates"`
	Count        int       `json:"count"`
	ModelVersion int       `json:"model_version"`
}

// handleEstimate owns the request scratch: the one place it is taken
// and the one place it goes back.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	sc := getEstScratch()
	if !s.estimate(w, r, sc) {
		// 504: the batcher may still write into sc.missOut — abandon the
		// scratch rather than recycle a buffer under a live writer.
		//lint:allow poolpair(audit) deliberate drop: recycling would put a buffer under a live batcher writer
		return
	}
	putEstScratch(sc)
}

// estimate answers one /v1/estimate request out of sc and reports
// whether sc may be recycled — false only when the request timed out
// with its micro-batch still in flight.
func (s *Server) estimate(w http.ResponseWriter, r *http.Request, sc *estScratch) (recycle bool) {
	if err := s.readBody(w, r, sc); err != nil {
		status, code, msg := classifyBodyError(err)
		s.writeError(w, r, status, code, msg)
		return true
	}
	if err := decodeEstimateBody(sc.body, sc); err != nil {
		s.writeError(w, r, http.StatusBadRequest, "bad_json", err.Error())
		return true
	}
	n := len(sc.pairs)
	if n == 0 {
		s.writeError(w, r, http.StatusBadRequest, "empty_request", "pairs must be non-empty")
		return true
	}
	if n > s.cfg.MaxPairs {
		s.writeError(w, r, http.StatusBadRequest, "too_many_pairs",
			fmt.Sprintf("%d pairs exceed the per-request limit %d", n, s.cfg.MaxPairs))
		return true
	}
	// One generation answers the whole request: its cache's hits, and its
	// weights and scale for the misses, which go back into its cache. The
	// reply's model_version names it.
	g := s.gen.Load()
	if g.m == nil {
		s.writeError(w, r, http.StatusServiceUnavailable, "no_model",
			"no W-D model is loaded (was the server bootstrapped with EstimatorWideDeep?)")
		return true
	}

	// Fingerprint every pair and consult the generation's estimate cache.
	sc.reset(n)
	fpDone := obs.StartSpan("serve.fingerprint")
	for i := range sc.pairs {
		qfp, qerr := sqlparse.FingerprintBytes(sc.pairs[i].query)
		vfp, verr := sqlparse.FingerprintBytes(sc.pairs[i].view)
		if qerr != nil || verr != nil {
			// Unlexable SQL: leave the pair to the miss path, which
			// reports the parse error with the canonical message.
			sc.missIdx = append(sc.missIdx, i)
			continue
		}
		sc.keys[i] = pairKey(qfp.Exact, vfp.Exact)
		sc.qKeys[i] = planKey(qfp.Exact)
		sc.vKeys[i] = planKey(vfp.Exact)
		sc.keyOK[i] = true
		if v, ok := g.est.get(sc.keys[i]); ok {
			sc.out[i] = v
			continue
		}
		sc.missIdx = append(sc.missIdx, i)
	}
	fpDone()

	if len(sc.missIdx) > 0 {
		if sc.ex == nil {
			sc.ex = featenc.NewBatchExtractor(s.adv.Cat)
		} else {
			sc.ex.Reset(s.adv.Cat)
		}
		for j, i := range sc.missIdx {
			qe, err := s.resolvePlan(sc.pairs[i].query, sc.qKeys[i], sc.keyOK[i])
			if err != nil {
				s.writeError(w, r, http.StatusBadRequest, "bad_sql", fmt.Sprintf("pairs[%d].query: %v", i, err))
				return true
			}
			ve, err := s.resolvePlan(sc.pairs[i].view, sc.vKeys[i], sc.keyOK[i])
			if err != nil {
				s.writeError(w, r, http.StatusBadRequest, "bad_sql", fmt.Sprintf("pairs[%d].view: %v", i, err))
				return true
			}
			sc.fs[j] = sc.ex.ExtractPre(qe.pf, ve.pf)
		}

		est := &estRequest{gen: g, fs: sc.fs[:len(sc.missIdx)], out: sc.missOut[:len(sc.missIdx)], done: make(chan struct{})}
		switch err := s.batcher.submit(est); {
		case errors.Is(err, errQueueFull):
			obsShed.Inc()
			s.writeError(w, r, http.StatusTooManyRequests, "overloaded", "estimate queue is full, retry later")
			return true
		case errors.Is(err, errShuttingDown):
			s.writeError(w, r, http.StatusServiceUnavailable, "shutting_down", "server is draining")
			return true
		}

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		select {
		case <-est.done:
		case <-ctx.Done():
			obsTimeouts.Inc()
			s.writeError(w, r, http.StatusGatewayTimeout, "timeout",
				fmt.Sprintf("estimate not ready within %v", s.cfg.RequestTimeout))
			return false
		}
		for j, i := range sc.missIdx {
			sc.out[i] = sc.missOut[j]
			if sc.keyOK[i] {
				g.est.put(sc.keys[i], sc.out[i])
			}
		}
	}

	obsPairs.Add(int64(n))
	s.writeJSON(w, http.StatusOK, estimateResponse{
		Estimates:    sc.out,
		Count:        n,
		ModelVersion: g.version,
	})
	return true
}

// --- POST /v1/queries --------------------------------------------------

type ingestRequest struct {
	Queries []string `json:"queries"`
}

type ingestResponse struct {
	Accepted int `json:"accepted"`
	// Window is the rolling window occupancy when the response was
	// built; ingestion is asynchronous, so it may lag the accept.
	Window int `json:"window"`
}

func (s *Server) handleQueries(w http.ResponseWriter, r *http.Request) {
	var req ingestRequest
	if status, code, err := s.decodeJSON(w, r, &req); err != nil {
		s.writeError(w, r, status, code, err.Error())
		return
	}
	if len(req.Queries) == 0 {
		s.writeError(w, r, http.StatusBadRequest, "empty_request", "queries must be non-empty")
		return
	}
	if len(req.Queries) > s.cfg.MaxQueries {
		s.writeError(w, r, http.StatusBadRequest, "too_many_queries",
			fmt.Sprintf("%d queries exceed the per-request limit %d", len(req.Queries), s.cfg.MaxQueries))
		return
	}
	plans := make([]*plan.Node, len(req.Queries))
	for i, sql := range req.Queries {
		n, err := plan.Parse(sql, s.adv.Cat)
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest, "bad_sql", fmt.Sprintf("queries[%d]: %v", i, err))
			return
		}
		plans[i] = n
	}
	switch err := s.sendIngest(ingestMsg{plans: plans, sqls: req.Queries}, false); {
	case errors.Is(err, errQueueFull):
		obsShed.Inc()
		s.writeError(w, r, http.StatusTooManyRequests, "overloaded", "ingest queue is full, retry later")
		return
	case errors.Is(err, errShuttingDown):
		s.writeError(w, r, http.StatusServiceUnavailable, "shutting_down", "server is draining")
		return
	}
	obsIngested.Add(int64(len(plans)))
	s.writeJSON(w, http.StatusAccepted, ingestResponse{Accepted: len(plans), Window: s.window.Len()})
}

// --- POST /v1/advise ---------------------------------------------------

type adviseRequest struct {
	// Force swaps the candidate set in even when its estimated utility
	// regresses (operator override of the rollback guard).
	Force bool `json:"force"`
}

func (s *Server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	var req adviseRequest
	if r.ContentLength != 0 {
		if status, code, err := s.decodeJSON(w, r, &req); err != nil {
			s.writeError(w, r, status, code, err.Error())
			return
		}
	}
	res, err := s.advise(r.Context(), "api", req.Force)
	switch {
	case errors.Is(err, errAdviseBusy):
		s.writeError(w, r, http.StatusConflict, "advise_in_progress", "an advise cycle is already running")
	case errors.Is(err, errShuttingDown):
		s.writeError(w, r, http.StatusServiceUnavailable, "shutting_down", "server is draining")
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		s.writeError(w, r, http.StatusGatewayTimeout, "timeout", err.Error())
	case err != nil:
		s.writeError(w, r, http.StatusInternalServerError, "advise_failed", err.Error())
	default:
		s.writeJSON(w, http.StatusOK, res)
	}
}

// --- GET /v1/views -----------------------------------------------------

func (s *Server) handleViews(w http.ResponseWriter, r *http.Request) {
	vs := s.gen.Load().views
	if vs == nil {
		// Bootstrap found no candidates and nothing has been advised
		// since: an empty, unversioned set.
		vs = &ViewSet{Views: []ViewInfo{}}
	}
	s.writeJSON(w, http.StatusOK, vs)
}

// --- GET /v1/healthz ---------------------------------------------------

type healthResponse struct {
	Status string `json:"status"`
	// State is the serving lifecycle: "recovering" (Start is still
	// replaying durable state; everything but this endpoint answers 503)
	// or "ready".
	State         string  `json:"state"`
	UptimeSeconds float64 `json:"uptime_s"`
	Window        int     `json:"window"`
	IngestedTotal uint64  `json:"ingested_total"`
	ViewVersion   int     `json:"view_version"`
	Views         int     `json:"views"`
	ModelVersion  int     `json:"model_version"`
	QueueDepth    int     `json:"queue_depth"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// One load: the two versions reported are always a published pair.
	g := s.gen.Load()
	res := healthResponse{
		Status:        "ok",
		State:         "ready",
		UptimeSeconds: time.Since(s.started).Seconds(),
		Window:        s.window.Len(),
		IngestedTotal: s.window.Total(),
		QueueDepth:    len(s.batcher.queue),
		ModelVersion:  g.version,
	}
	if g.views != nil {
		res.ViewVersion, res.Views = g.views.Version, len(g.views.Views)
	}
	if !s.ready.Load() {
		res.Status, res.State = "starting", "recovering"
		s.writeJSON(w, http.StatusServiceUnavailable, res)
		return
	}
	s.writeJSON(w, http.StatusOK, res)
}

// --- POST /v1/admin/model ----------------------------------------------

type reloadRequest struct {
	// Path of a checkpoint written by widedeep.Model.Save (e.g. by
	// cmd/costmodel -save). The checkpoint must have been trained on a
	// model with this server's vocabulary and W-D architecture.
	Path string `json:"path"`
	// Scale optionally overrides the cost scale paired with the loaded
	// weights; 0 keeps the current scale.
	Scale float64 `json:"scale"`
}

type reloadResponse struct {
	ModelVersion int `json:"model_version"`
}

func (s *Server) handleReloadModel(w http.ResponseWriter, r *http.Request) {
	var req reloadRequest
	if status, code, err := s.decodeJSON(w, r, &req); err != nil {
		s.writeError(w, r, status, code, err.Error())
		return
	}
	if req.Path == "" {
		s.writeError(w, r, http.StatusBadRequest, "empty_request", "path must be set")
		return
	}
	if req.Scale < 0 {
		s.writeError(w, r, http.StatusBadRequest, "bad_scale", "scale must be non-negative")
		return
	}
	cur := s.gen.Load()
	if cur.m == nil {
		s.writeError(w, r, http.StatusConflict, "no_model",
			"no active model to derive the architecture from (bootstrap with EstimatorWideDeep first)")
		return
	}
	f, err := os.Open(req.Path)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, "model_load_failed", err.Error())
		return
	}
	defer func() { _ = f.Close() }() // read-only open; nothing to flush
	// Rebuild the architecture deterministically over the active
	// vocabulary, then overwrite its weights from the checkpoint.
	fresh := widedeep.New(cur.m.Enc.Vocab, s.adv.Cfg.WDModel, rand.New(rand.NewSource(s.adv.Cfg.Seed)))
	if err := fresh.Load(f); err != nil {
		s.writeError(w, r, http.StatusBadRequest, "model_load_failed", err.Error())
		return
	}
	scale := cur.scale
	if req.Scale > 0 {
		scale = req.Scale
	}
	next := s.publish(fresh, scale, nil)
	obsReloads.Inc()
	s.writeJSON(w, http.StatusOK, reloadResponse{ModelVersion: next.version})
}
