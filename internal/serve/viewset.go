package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"sort"
	"time"

	"autoview/internal/core"
	"autoview/internal/featenc"
	"autoview/internal/obs"
	"autoview/internal/plan"
	"autoview/internal/sqlparse"
	"autoview/internal/widedeep"
)

var errAdviseBusy = errors.New("serve: an advise cycle is already running")

// obsAdviseWorkers reports the advisor worker count of the last cycle
// (see adviseWorkers).
var obsAdviseWorkers = obs.Default.Gauge("serve.advise.workers", "advisor workers the last advise cycle ran with")

// ViewInfo is one materialized view of the active set.
type ViewInfo struct {
	ID          string  `json:"id"`
	Fingerprint string  `json:"fingerprint"`
	SharedBy    int     `json:"shared_by"`
	Overhead    float64 `json:"overhead"`
	SQL         string  `json:"sql"`
	DDL         string  `json:"ddl"`
}

// ViewSet is one immutable advisor output: a version number, the
// selection method and estimated utility, and the chosen views sorted by
// fingerprint (a canonical order independent of selection internals).
// The server swaps whole sets atomically (copy-on-write); readers never
// observe a partially rotated set.
type ViewSet struct {
	Version   int        `json:"version"`
	Method    string     `json:"method"`
	Utility   float64    `json:"utility"`
	Window    int        `json:"window"`
	CreatedAt time.Time  `json:"created_at"`
	Views     []ViewInfo `json:"views"`
}

// AdviseResult reports one re-advise cycle's outcome.
type AdviseResult struct {
	// Version is the active view-set version after the cycle (unchanged
	// on rollback or when the window held no candidates).
	Version int `json:"version"`
	// Swapped reports that a new view set was rotated in.
	Swapped bool `json:"swapped"`
	// RolledBack reports that the candidate set was rejected because its
	// estimated utility regressed below the active set's.
	RolledBack bool `json:"rolled_back"`
	// NoCandidates reports that pre-processing found nothing to share.
	NoCandidates bool `json:"no_candidates,omitempty"`
	// Method/Utility/Views describe the candidate selection (the active
	// set's values when the cycle produced no candidates).
	Method  string  `json:"method,omitempty"`
	Utility float64 `json:"utility"`
	Views   int     `json:"views"`
	// Window is the number of queries the cycle ran over.
	Window int `json:"window"`
}

// advise runs one re-advise cycle: barrier the ingest queue, snapshot
// the rolling window, run estimate+select (core.Advisor.Advise), and
// rotate the versioned view set — atomically swapping it in, or rolling
// back when the candidate's estimated utility regresses (force
// overrides the rollback guard). Cycles are serialized; a concurrent
// trigger fails fast with errAdviseBusy. A freshly trained W-D model is
// hot-swapped in whether or not the view set rotates.
func (s *Server) advise(ctx context.Context, trigger string, force bool) (*AdviseResult, error) {
	if !s.adviseMu.TryLock() {
		return nil, errAdviseBusy
	}
	defer s.adviseMu.Unlock()
	defer obs.StartSpan("serve.advise")()

	if trigger != "bootstrap" { // the ingester starts after bootstrap
		if err := s.ingestBarrier(ctx); err != nil {
			return nil, err
		}
	}
	queries := s.window.Snapshot()
	cur := s.views.Load()

	// The cycle runs on a copy of the advisor sized for its moment: the
	// stores are shared, only the worker count differs.
	adv := *s.adv
	adv.Cfg.Parallelism = s.adviseWorkers(trigger == "bootstrap")
	obsAdviseWorkers.Set(float64(adv.Cfg.Parallelism))
	p, sel, err := adv.Advise(queries)
	if errors.Is(err, core.ErrNoCandidates) {
		obsCycles.Inc()
		res := &AdviseResult{NoCandidates: true, Window: len(queries)}
		if cur != nil {
			res.Version, res.Method, res.Utility, res.Views = cur.Version, cur.Method, cur.Utility, len(cur.Views)
		}
		obs.Info("serve.advise", "trigger", trigger, "outcome", "no_candidates", "window", len(queries))
		return res, nil
	}
	if err != nil {
		obs.Error("serve.advise", "trigger", trigger, "err", err)
		return nil, err
	}

	// Hot-swap the freshly trained model (EstimatorWideDeep only) before
	// deciding the rotation: estimates should always come from the
	// newest weights even if the view set rolls back.
	if p.Model != nil {
		s.swapModel(p.Model, p.CostScale())
	}

	next := s.buildViewSet(p, sel, len(queries))
	res := &AdviseResult{Method: next.Method, Utility: next.Utility, Views: len(next.Views), Window: next.Window}
	if cur != nil {
		next.Version = cur.Version + 1
		// Rollback guard: reject a set whose estimated utility regresses
		// past the tolerance band around the active set's utility.
		floor := cur.Utility - s.cfg.UtilityTolerance*math.Abs(cur.Utility)
		if !force && next.Utility < floor {
			obsCycles.Inc()
			obsRollbacks.Inc()
			res.Version, res.RolledBack = cur.Version, true
			obs.Warn("serve.advise", "trigger", trigger, "outcome", "rollback",
				"active_version", cur.Version, "active_utility", cur.Utility,
				"candidate_utility", next.Utility, "window", next.Window)
			return res, nil
		}
	}

	s.durMu.Lock()
	s.views.Store(next)
	if s.dur != nil {
		if raw, err := json.Marshal(next); err != nil {
			obs.Error("serve.durable", "event", "viewset_record_failed", "version", next.Version, "err", err)
		} else if err := s.dur.AppendViewSet(raw); err != nil {
			obs.Error("serve.durable", "event", "viewset_record_failed", "version", next.Version, "err", err)
		}
	}
	s.durMu.Unlock()
	s.refreshViewPlans(next)
	obsCycles.Inc()
	obsSwaps.Inc()
	obsViewsVer.Set(float64(next.Version))
	obsViewsCount.Set(float64(len(next.Views)))
	obsUtility.Set(next.Utility)
	res.Version, res.Swapped = next.Version, true
	obs.Info("serve.advise", "trigger", trigger, "outcome", "swap", "version", next.Version,
		"method", next.Method, "views", len(next.Views), "utility", next.Utility, "window", next.Window)
	if s.dur != nil {
		// Rotations are rare and operator-visible: force them durable now
		// rather than waiting out the fsync interval, then take a snapshot
		// if the record cadence has accumulated.
		if err := s.dur.Sync(); err != nil {
			obs.Error("serve.durable", "event", "rotation_sync_failed", "err", err)
		}
		s.maybeSnapshot()
	}
	return res, nil
}

// adviseWorkers is the worker count an advise cycle runs the advisor
// with (W-D training, the held-out predictions, pair measurement, the
// RLView episodes). An explicit core Parallelism is used as given. Under 0
// the bootstrap takes every core, since nothing is served until it
// finishes, and every later cycle leaves one to the readers it runs
// beside. Training is bit-identical at any worker count, so the choice
// never changes a model or a view set.
func (s *Server) adviseWorkers(bootstrap bool) int {
	if p := s.adv.Cfg.Parallelism; p > 0 {
		return p
	}
	n := runtime.GOMAXPROCS(0)
	if !bootstrap {
		n = max(1, n-1)
	}
	return n
}

// ingestBarrier flushes the ingest queue into the window, so an advise
// cycle observes every query whose ingest request completed before the
// cycle began.
func (s *Server) ingestBarrier(ctx context.Context) error {
	barrier := make(chan struct{})
	if err := s.sendIngest(ingestMsg{done: barrier}, true); err != nil {
		return err
	}
	select {
	case <-barrier:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-s.stopBg:
		return errShuttingDown
	}
}

// swapModel atomically publishes new weights and their cost scale as a
// new generation with an empty estimate cache, and returns its version.
// Requests in flight finish on the generation they loaded, estimates
// and cache included; the replaced generation's cached estimates leave
// with it. The version is assigned under durMu, which serializes swaps,
// so two swaps never share a version (or a checkpoint name). When
// running durably the checkpoint and its WAL record are persisted under
// the same durMu hold as the publish, so a snapshot sees either both or
// neither side of the swap.
func (s *Server) swapModel(m2 *widedeep.Model, scale float64) int {
	if scale <= 0 {
		scale = 1
	}
	s.durMu.Lock()
	prev := s.model.Load()
	version := 1
	if prev != nil {
		version = prev.version + 1
	}
	next := s.newModel(m2, scale, version)
	s.model.Store(next)
	obsCacheSize.Set(0)
	s.persistModel(next)
	obsModelVer.Set(float64(version))
	s.durMu.Unlock()
	if prev != nil {
		obsCacheEvict.Add(int64(prev.est.len()))
	}
	obs.Info("serve.model", "event", "swap", "version", version, "scale", scale)
	return version
}

// refreshViewPlans precomputes the parsed plan + plan-local features of
// every advertised view at rotation time, keyed by the fingerprint of
// exactly the SQL clients read from /v1/views. The view half of a warm
// estimate then skips parsing and serialization entirely. The SQL is
// re-parsed (rather than reusing the candidate's plan) so cached
// features are identical to what the cold path derives from client-sent
// text.
func (s *Server) refreshViewPlans(vs *ViewSet) {
	if s.planCache == nil {
		return
	}
	for i := range vs.Views {
		sql := vs.Views[i].SQL
		fp, err := sqlparse.Fingerprint(sql)
		if err != nil {
			continue
		}
		n, err := plan.Parse(sql, s.adv.Cat)
		if err != nil {
			continue
		}
		s.planCache.put(planKey(fp.Exact), &planEntry{node: n, pf: featenc.Precompute(n)})
	}
}

// buildViewSet assembles the fingerprint-sorted, immutable view set for
// a selection.
func (s *Server) buildViewSet(p *core.Problem, sel *core.Selection, window int) *ViewSet {
	vs := &ViewSet{
		Version:   1,
		Method:    sel.Method,
		Utility:   sel.Utility,
		Window:    window,
		CreatedAt: time.Now().UTC(),
	}
	for j, z := range sel.Z {
		if !z {
			continue
		}
		cand := p.Candidates[j]
		vs.Views = append(vs.Views, ViewInfo{
			ID:          cand.View.ID,
			Fingerprint: string(cand.View.Fingerprint),
			SharedBy:    len(cand.Queries),
			Overhead:    cand.Overhead,
			SQL:         plan.ToSQL(cand.View.Plan),
			DDL:         plan.ViewDDL(cand.View.ID, cand.View.Plan),
		})
	}
	sort.Slice(vs.Views, func(i, j int) bool { return vs.Views[i].Fingerprint < vs.Views[j].Fingerprint })
	return vs
}
