package serve

import (
	"errors"
	"math"
	"sort"
	"time"

	"autoview/internal/core"
	"autoview/internal/featenc"
	"autoview/internal/nn"
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
// selection method and the utility its selector reported on its cycle's
// window, and the chosen views sorted by fingerprint (a canonical order
// independent of selection internals). A set rides in the generation
// that installed it; readers never observe a partially rotated set.
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
	// RolledBack reports that the candidate set was rejected because it
	// scored below the active set on the cycle's window.
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

// advise runs one re-advise cycle: snapshot the rolling window (which
// holds every query whose ingest has replied), run estimate+select
// (core.Advisor.Advise), and publish the outcome as one generation — the
// freshly trained weights with the candidate view set, or with the
// active set when the rollback guard rejects the candidate (force
// overrides the guard). Cycles are serialized; a concurrent trigger
// fails fast with errAdviseBusy.
func (s *Server) advise(trigger string, force bool) (*AdviseResult, error) {
	if !s.adviseMu.TryLock() {
		return nil, errAdviseBusy
	}
	defer s.adviseMu.Unlock()
	defer obs.StartSpan("serve.advise")()

	queries := s.window.Snapshot()
	// Only advise replaces the view set and cycles are serialized, so the
	// set loaded here is still the active one when the cycle publishes.
	cur := s.gen.Load().views

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
	obsCycles.Inc()

	next := s.buildViewSet(p, sel, len(queries))
	res := &AdviseResult{Method: next.Method, Utility: next.Utility, Views: len(next.Views), Window: next.Window}
	if cur != nil && !force {
		candU, curU, regressed := sameProblem(p, sel.Z, cur, s.cfg.UtilityTolerance)
		if regressed {
			// Estimates still come from the newest weights: they publish
			// beside the set they just judged the better one.
			if p.Model != nil {
				s.publish(p.Model, p.CostScale(), nil)
			}
			obsRollbacks.Inc()
			res.Version, res.RolledBack = cur.Version, true
			obs.Warn("serve.advise", "trigger", trigger, "outcome", "rollback",
				"active_version", cur.Version, "active_utility", curU,
				"candidate_utility", candU, "window", next.Window)
			return res, nil
		}
	}

	s.publish(p.Model, p.CostScale(), next)
	obsSwaps.Inc()
	res.Version, res.Swapped = next.Version, true
	obs.Info("serve.advise", "trigger", trigger, "outcome", "swap", "version", next.Version,
		"method", next.Method, "views", len(next.Views), "utility", next.Utility, "window", next.Window)
	return res, nil
}

// sameProblem scores a candidate selection z and the active view set on
// one problem (this cycle's window, costs and model) and reports whether
// the candidate falls more than tol, relative, below the active set. The
// active views are matched to p's candidates by fingerprint; one that is
// no longer a candidate costs its recorded overhead and serves nothing.
func sameProblem(p *core.Problem, z []bool, active *ViewSet, tol float64) (candidate, current float64, regressed bool) {
	index := make(map[string]int, len(p.Candidates))
	for j, c := range p.Candidates {
		index[string(c.View.Fingerprint)] = j
	}
	kept := make([]bool, len(p.Candidates))
	var gone float64
	for _, v := range active.Views {
		if j, ok := index[v.Fingerprint]; ok {
			kept[j] = true
		} else {
			gone += v.Overhead
		}
	}
	candidate = p.Instance.UtilityOfZ(z)
	current = p.Instance.UtilityOfZ(kept) - gone
	return candidate, current, candidate < current-tol*math.Abs(current)
}

// publish makes the next generation the served state and returns it.
// An advise swap passes new weights and a new view set, a rollback or a
// hot-reload new weights alone; a nil half keeps the current one with
// its version (the weights also keep their scale and estimate cache).
// Under durMu, which serializes publishes so two never share a version,
// it numbers the new halves, persists the generation and stores it: a
// snapshot sees all of a publish or none of it. Then it warms the plan
// cache for a new set and forces the WAL durable. Requests in flight
// finish on the generation they loaded.
func (s *Server) publish(m *widedeep.Model, scale float64, views *ViewSet) *generation {
	s.durMu.Lock()
	cur := s.gen.Load()
	next := *cur
	if m != nil {
		next.m, next.scale, next.version = m, scale, cur.version+1
		next.est = newCache[estEntry](s.cfg.CacheSize, estCacheMetrics)
		obsCacheSize.Set(0)
	}
	if views != nil {
		views.Version = 1
		if cur.views != nil {
			views.Version = cur.views.Version + 1
		}
		next.views = views
	}
	if s.dur != nil {
		s.persist(&next)
	}
	s.gen.Store(&next)
	setGauges(&next)
	s.durMu.Unlock()

	if m != nil {
		obsCacheEvict.Add(int64(cur.est.len())) // the replaced weights' estimates leave with them
		obs.Info("serve.model", "event", "swap", "version", next.version, "scale", next.scale)
	}
	if views != nil {
		s.refreshViewPlans(views)
	}
	if s.dur != nil {
		// Publishes are rare and operator-visible: force each durable now
		// rather than waiting out the fsync interval, then take a snapshot
		// if the record cadence has accumulated.
		if err := s.dur.Sync(); err != nil {
			obs.Error("serve.durable", "event", "generation_sync_failed", "err", err)
		}
		s.maybeSnapshot()
	}
	return &next
}

// setGauges reports g's versions and view set on the serve gauges.
func setGauges(g *generation) {
	obsModelVer.Set(float64(g.version))
	if g.views != nil {
		obsViewsVer.Set(float64(g.views.Version))
		obsViewsCount.Set(float64(len(g.views.Views)))
		obsUtility.Set(g.views.Utility)
	}
}

// adviseWorkers is the worker count an advise cycle runs the advisor
// with (W-D training, the held-out predictions, pair measurement, the
// RLView episodes). An explicit core Parallelism is used as given. Under 0
// the bootstrap takes every core (runtime.NumCPU(), as nn.Workers
// resolves 0), since nothing is served until it finishes, and every
// later cycle leaves one to the readers it runs beside. Training is
// bit-identical at any worker count, so the choice never changes a
// model or a view set.
func (s *Server) adviseWorkers(bootstrap bool) int {
	if p := s.adv.Cfg.Parallelism; p > 0 {
		return p
	}
	n := nn.Workers(math.MaxInt, 0)
	if !bootstrap {
		n = max(1, n-1)
	}
	return n
}

// refreshViewPlans precomputes the plan-local features of every
// advertised view at rotation time, keyed by the fingerprint of exactly
// the SQL clients read from /v1/views, and by its template. The view
// half of a warm estimate then skips parsing and serialization
// entirely, and a view with other literals re-binds. The SQL is
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
		pf := featenc.Precompute(n)
		s.planCache.put(planKey(fp.Exact), pf)
		if tk, _, err := sqlparse.Template([]byte(sql), nil); err == nil {
			s.tmplCache.put(planKey(tk), pf)
		}
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
