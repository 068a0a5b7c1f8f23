package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"autoview/internal/core"
	"autoview/internal/durable"
	"autoview/internal/engine"
	"autoview/internal/equiv"
	"autoview/internal/featenc"
	"autoview/internal/mvs"
	"autoview/internal/nn"
	"autoview/internal/obs"
	"autoview/internal/plan"
	"autoview/internal/rewrite"
	"autoview/internal/rl"
	"autoview/internal/serve"
	"autoview/internal/sqlparse"
	"autoview/internal/widedeep"
	"autoview/internal/workload"
)

// The layer replays of a traced run. The same seeded inputs the live
// workloads send are pushed, in this process, through each module's
// public functions, with a span around every call. The replays are the
// same on every workload, because a layer's cost per call does not
// depend on which workload is being traced; what differs per workload
// is which of them its end-to-end number is made of, and that is what
// the reconciliation tables show. Layer names are module names.

// layerRun is the state of one replay suite.
type layerRun struct {
	h   *harness
	r   *runResult
	t   *tracer
	req int // next request/job id

	w     *workload.Workload
	model *widedeep.Model // trained on wk1 by the advisor replay; the serving replays reuse it
}

func (l *layerRun) set(name string, v float64, unit string) {
	l.r.PerLayer[name] = metricValue{v, unit}
}

// nextReq hands out the identifier the spans of one replayed request or
// job share.
func (l *layerRun) nextReq() int {
	l.req++
	return l.req
}

// medianUS is the median duration, in microseconds, of the spans with
// the given name.
func (l *layerRun) medianUS(name string) float64 {
	return us(medianDuration(l.t.durationsOf(name)))
}

// totalOf is the summed duration of the spans with the given name.
func (l *layerRun) totalOf(name string) time.Duration {
	var sum time.Duration
	for _, d := range l.t.durationsOf(name) {
		sum += d
	}
	return sum
}

// medianDuration sorts ds in place and returns its median.
func medianDuration(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return percentile(ds, 50)
}

// mallocs counts heap allocations of fn.
func mallocs(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

func (h *harness) runLayers(r *runResult) {
	if r.PerLayer == nil {
		// The live part failed before it had counters; the replays
		// still run, and the failed operation fails the run.
		r.PerLayer = noDaemonCounters()
	}
	// What the live part measured at the caller and at the process.
	r.PerLayer["client.items_per_s"] = metricValue{r.Notes[noteItems], unitRate}
	r.PerLayer["client.latency_p99_ms"] = metricValue{r.Notes[noteP99], unitMS}
	r.PerLayer["core.advise_cycle_s"] = metricValue{r.Notes[noteAdvise], unitS}
	r.PerLayer["proc.peak_rss_mb"] = metricValue{r.Notes[notePeakRSS], unitMB}
	l := &layerRun{h: h, r: r, t: newTracer()}
	steps := []struct {
		name string
		fn   func() error
	}{
		{"statements", l.statements},
		{"pipeline", l.pipeline},
		{"kernels", l.kernels},
		{"serving", l.serving},
		{"durability", l.durability},
		{"misc", l.misc},
	}
	for _, s := range steps {
		err := s.fn()
		r.op("replay_"+s.name, err)
		if err != nil {
			break
		}
	}
	for _, row := range r.Reconcile {
		if row.failsRun() {
			r.op("reconcile", fmt.Errorf("%s: layers sum to %.4f %s, %.0f%% more than their parent %s = %.4f",
				row.Table, row.LayerSum, row.Unit, -row.Unattributed*100, row.Parent, row.ParentValue))
		}
	}
	r.Spans = l.t.dump()
}

// --- sqlparse, plan, featenc: one pass over wk1's statements ---------------------

func (l *layerRun) statements() error {
	// viewgen and the advisor replays run with the registry's spans off.
	obs.Disable()
	gen := l.t.start("workload.generate", -1, l.nextReq())
	l.w = workload.WK1()
	l.w.Plans()
	l.set("workload.generate_ms", ms(l.t.end(gen)), unitMS)
	cat := l.w.Cat
	ex := featenc.NewBatchExtractor(cat)

	pass := func(record bool) error {
		for i := range l.w.Queries {
			sql := l.w.Queries[i].SQL
			raw := []byte(sql)
			t := l.t
			if !record {
				t = newTracer() // the warm pass is thrown away
			}
			req := l.nextReq()
			root := t.start("replay.statement", -1, req)
			var err error
			t.time("sqlparse.lex", root, req, func() { _, err = sqlparse.Lex(sql) })
			if err != nil {
				return err
			}
			var stmt *sqlparse.SelectStmt
			t.time("sqlparse.parse", root, req, func() { stmt, err = sqlparse.Parse(sql) })
			if err != nil {
				return err
			}
			t.time("sqlparse.fingerprint", root, req, func() { _, err = sqlparse.FingerprintBytes(raw) })
			if err != nil {
				return err
			}
			var node *plan.Node
			t.time("plan.build", root, req, func() { node, err = plan.Build(stmt, cat) })
			if err != nil {
				return err
			}
			t.time("plan.serialize", root, req, func() { plan.Serialize(node) })
			t.time("plan.normalized_fingerprint", root, req, func() { plan.NormalizedFingerprint(node) })
			var subs []plan.Subquery
			t.time("plan.extract_subqueries", root, req, func() { subs = plan.ExtractSubqueries(node) })
			var qf, vf *featenc.PlanFeat
			t.time("featenc.precompute", root, req, func() { qf = featenc.Precompute(node) })
			view := node
			if len(subs) > 1 {
				view = subs[1].Root // the first proper subplan
			}
			vf = featenc.Precompute(view)
			ex.Reset(cat)
			t.time("featenc.extract", root, req, func() { ex.ExtractPre(qf, vf) })
			t.end(root)
		}
		return nil
	}
	if err := pass(false); err != nil {
		return err
	}
	if err := pass(true); err != nil {
		return err
	}
	for _, name := range []string{"sqlparse.lex", "sqlparse.parse", "sqlparse.fingerprint", "plan.build", "plan.serialize",
		"plan.normalized_fingerprint", "plan.extract_subqueries", "featenc.precompute", "featenc.extract"} {
		l.set(name+"_us", l.medianUS(name), unitUS)
	}
	return nil
}

// --- core, equiv, mvs, rl, engine, rewrite, widedeep.fit: the advisor's path ------

func (l *layerRun) pipeline() error {
	h := l.h
	cfg := core.WKConfig()
	cfg.Seed = h.seed
	cfg.Estimator = core.EstimatorWideDeep
	cfg.Selector = core.SelectorRLView

	// The job below is what `viewgen -workload wk1 -estimator wd
	// -selector rlview -seed <seed>` does, stage by stage.
	job := l.nextReq()
	root := l.t.start("replay.pipeline", -1, job)
	var w *workload.Workload
	var plans []*plan.Node
	var exec *engine.Executor
	genD := l.t.time("workload.setup", root, job, func() {
		w = workload.WK1()
		exec = engine.New(w.Populate())
		plans = w.Plans()
	})
	adv := core.NewAdvisor(w.Cat, exec, cfg)
	var pre *equiv.Result
	preD := l.t.time("core.preprocess", root, job, func() { pre = adv.Preprocess(plans) })
	var p *core.Problem
	var err error
	buildD := l.t.time("core.build_problem", root, job, func() { p, err = adv.BuildProblem(plans, pre) })
	if err != nil {
		return err
	}
	opts := cfg.RL
	opts.Rand = rand.New(rand.NewSource(cfg.Seed + 7)) // as core.Advisor.Select seeds it
	var res *rl.Result
	selD := l.t.time("rl.rlview", root, job, func() { res = rl.RLView(p.Instance, opts) })
	sel := &core.Selection{Method: "RLView", Z: res.Best.Z, Utility: res.BestUtility, Trace: res.Trace}
	var rep *core.Report
	applyD := l.t.time("core.apply", root, job, func() { rep, err = adv.Apply(p, sel) })
	if err != nil {
		return err
	}
	total := l.t.end(root)
	l.model = p.Model
	var selected []*rewrite.View
	for j, z := range sel.Z {
		if z {
			selected = append(selected, p.Candidates[j].View)
		}
	}

	l.set("core.preprocess_s", preD.Seconds(), unitS)
	l.set("core.build_problem_s", buildD.Seconds(), unitS)
	l.set("rl.rlview_s", selD.Seconds(), unitS)
	l.set("core.apply_s", applyD.Seconds(), unitS)
	l.set("pipeline.saved_cost_ratio_pct", rep.SavedRatio, unitPct)
	stages := map[string]float64{
		"workload.setup":     genD.Seconds(),
		"core.preprocess":    preD.Seconds(),
		"core.build_problem": buildD.Seconds(),
		"rl.rlview":          selD.Seconds(),
		"core.apply":         applyD.Seconds(),
	}
	inProc := reconcile("pipeline (in-process replay)", "replay.pipeline", total.Seconds(), unitS, stages)
	l.set("pipeline.unattributed_share", (total-preD-buildD-selD-applyD).Seconds()/total.Seconds(), unitRatio)
	l.r.Reconcile = append(l.r.Reconcile, inProc)
	if l.r.Workload == wlPipeline {
		// The replay ran the child's computation: same seed, same report.
		if line, ok := l.r.Exact["report_line"]; ok {
			if rep.String() != line {
				return fmt.Errorf("the in-process replay reports %q, the viewgen child reported %q", rep.String(), line)
			}
			l.r.Reconcile = append(l.r.Reconcile, reconcile("pipeline_rlview: child wall clock against the replayed stages",
				"pipeline_wall_s", l.r.Notes["pipeline_wall_s"], unitS, stages).separate())
		}
	}

	// core.apply again from outside: the rewrites and executions it is
	// made of, on the same problem and selection.
	replay := l.nextReq()
	rroot := l.t.start("replay.apply", -1, replay)
	var rows int
	for _, q := range plans {
		var rw *plan.Node
		l.t.time("rewrite.rewrite", rroot, replay, func() { rw, _ = rewrite.Rewrite(q, selected) })
		var u engine.Usage
		l.t.time("engine.cost", rroot, replay, func() { u, err = exec.Cost(q) })
		if err != nil {
			return err
		}
		rows += u.OutRows
		l.t.time("engine.cost", rroot, replay, func() { u, err = exec.Cost(rw) })
		if err != nil {
			return err
		}
		rows += u.OutRows
	}
	l.t.end(rroot)
	rewriteD, costD := l.totalOf("rewrite.rewrite"), l.totalOf("engine.cost")
	l.set("rewrite.rewrite_us", l.medianUS("rewrite.rewrite"), unitUS)
	l.set("engine.cost_us", l.medianUS("engine.cost"), unitUS)
	l.set("engine.rows_per_s", float64(rows)/costD.Seconds(), unitRate)
	applyRow := reconcile("core.apply against an outside replay of its rewrites and executions",
		"core.apply", applyD.Seconds(), unitS, map[string]float64{
			"rewrite.rewrite": rewriteD.Seconds(),
			"engine.cost":     costD.Seconds(),
		}).separate()
	l.set("core.apply_unattributed_share", applyRow.Unattributed, unitRatio)
	l.r.Reconcile = append(l.r.Reconcile, applyRow)

	// The serving daemon's selectors and the pre-process stage on their
	// own, on the same instance (|Z| candidates).
	in := p.Instance
	l.set("equiv.preprocess_ms", ms(l.t.time("equiv.preprocess", -1, l.nextReq(), func() {
		equiv.Preprocess(plans, &equiv.Options{MinShare: cfg.MinShare})
	})), unitMS)
	ls := *adv
	ls.Cfg.Selector = core.SelectorLocalSearch
	l.set("core.select_s", l.t.time("core.select", -1, l.nextReq(), func() { _, err = ls.Select(p) }).Seconds(), unitS)
	if err != nil {
		return err
	}
	l.set("mvs.localsearch_ms", ms(l.t.time("mvs.localsearch", -1, l.nextReq(), func() {
		o := cfg.Local
		o.Rand = rand.New(rand.NewSource(cfg.Seed + 7))
		mvs.LocalSearch(in, o)
	})), unitMS)
	l.set("mvs.iterview_ms", ms(l.t.time("mvs.iterview", -1, l.nextReq(), func() {
		o := cfg.Iter
		o.Rand = rand.New(rand.NewSource(cfg.Seed + 7))
		mvs.IterView(in, o)
	})), unitMS)
	for i := 0; i < 50; i++ {
		l.t.time("mvs.besty", -1, l.nextReq(), func() { in.BestY(sel.Z) })
	}
	l.set("mvs.besty_us", l.medianUS("mvs.besty"), unitUS)

	// The DQN on its own: scoring every action of a state, and one
	// replay-batch update on the memory the run above filled.
	feats := make([][]float64, in.NumViews())
	frng := rand.New(rand.NewSource(h.seed))
	for j := range feats {
		feats[j] = make([]float64, rl.FeatureDim)
		for k := range feats[j] {
			feats[j][k] = frng.Float64()
		}
	}
	for i := 0; i < 200; i++ {
		l.t.time("rl.qvalues", -1, l.nextReq(), func() { res.Agent.QValues(feats) })
	}
	l.set("rl.qvalues_us", l.medianUS("rl.qvalues"), unitUS)
	for i := 0; i < 30; i++ {
		l.t.time("rl.learn", -1, l.nextReq(), func() { res.Agent.Learn() })
	}
	l.set("rl.learn_ms", l.medianUS("rl.learn")/1e3, unitMS)

	// Materializing every candidate view on a fresh store.
	mgr := rewrite.NewManager(w.Populate())
	for _, c := range pre.Candidates {
		l.t.time("rewrite.materialize", -1, l.nextReq(), func() { _, err = mgr.Materialize(c.Plan) })
		if err != nil {
			return err
		}
	}
	l.set("rewrite.materialize_ms", l.medianUS("rewrite.materialize")/1e3, unitMS)

	// W-D training on its own: a fresh model fitted, with the advisor's
	// training configuration, to as many (query, view) samples as the
	// advisor trains on (its train fraction of the applicable pairs),
	// labelled by the trained model.
	var samples []widedeep.Sample
	for j, c := range p.Candidates {
		for _, qi := range c.Queries {
			f := featenc.Extract(p.Queries[qi], p.Candidates[j].View.Plan, w.Cat)
			samples = append(samples, widedeep.Sample{F: f, Y: p.Model.Predict(f)})
		}
	}
	samples = samples[:int(float64(len(samples))*cfg.TrainFraction)]
	fresh := widedeep.New(p.Model.Enc.Vocab, cfg.WDModel, rand.New(rand.NewSource(cfg.Seed)))
	l.set("widedeep.fit_s", l.t.time("widedeep.fit", -1, l.nextReq(), func() { _, err = fresh.Fit(samples, cfg.WDTrain) }).Seconds(), unitS)
	if err != nil {
		return err
	}
	l.r.Reconcile = append(l.r.Reconcile, reconcile("core.build_problem against W-D training on its own",
		"core.build_problem", buildD.Seconds(), unitS, map[string]float64{"widedeep.fit": l.totalOf("widedeep.fit").Seconds()}).separate())

	// The forward pass, one pair at a time and sixteen at a time.
	fs := make([]featenc.Features, len(samples))
	for i := range samples {
		fs[i] = samples[i].F
	}
	p.Model.Predict(fs[0]) // sizes the scratch arena
	for i := range fs {
		l.t.time("widedeep.predict", -1, l.nextReq(), func() { p.Model.Predict(fs[i]) })
	}
	l.set("widedeep.predict_us", l.medianUS("widedeep.predict"), unitUS)
	l.set("widedeep.predict_allocs", mallocs(func() {
		for i := 0; i < 100; i++ {
			p.Model.Predict(fs[i%len(fs)])
		}
	})/100, unitCount)
	for i := 0; i+pairsPerRequest <= len(fs); i += pairsPerRequest {
		l.t.time("widedeep.predict_batch16", -1, l.nextReq(), func() { p.Model.PredictBatch(fs[i:i+pairsPerRequest], runtime.NumCPU()) })
	}
	l.set("widedeep.predict_batch16_us", l.medianUS("widedeep.predict_batch16"), unitUS)

	// Appending an ingest burst's plans to the rolling window.
	win := core.NewWindow(512)
	sqls := make([]string, ingestQueries)
	for i := 0; i+ingestQueries <= len(plans); i += ingestQueries {
		for k := range sqls {
			sqls[k] = w.Queries[i+k].SQL
		}
		l.t.time("core.window_append", -1, l.nextReq(), func() { win.AppendTagged(plans[i:i+ingestQueries], sqls) })
	}
	l.set("core.window_append_us", l.medianUS("core.window_append"), unitUS)
	return nil
}

// --- nn: the kernels under the forward pass and the trainer -----------------------

func (l *layerRun) kernels() error {
	// MatVec32 at the W-D LSTM gate shape: four gates of Hidden rows over
	// the concatenated [input, hidden] vector.
	enc := core.WKConfig().WDModel.Encoder
	rows, cols := 4*enc.Hidden, enc.EmbedDim+enc.Hidden
	rng := rand.New(rand.NewSource(l.h.seed))
	wts, b, x, dst := make(nn.Vec32, rows*cols), make(nn.Vec32, rows), make(nn.Vec32, cols), make(nn.Vec32, rows)
	for i := range wts {
		wts[i] = rng.Float32()
	}
	for i := range x {
		x[i] = rng.Float32()
	}
	const calls = 2000
	for i := 0; i < 50; i++ {
		l.t.time("nn.matvec32x2000", -1, l.nextReq(), func() {
			for k := 0; k < calls; k++ {
				nn.MatVec32(dst, wts, rows, cols, b, x)
			}
		})
	}
	l.set("nn.matvec32_ns", l.medianUS("nn.matvec32x2000")*1e3/calls, unitNS)

	// One batch-128 step of nn.Trainer over the MLP BenchmarkNNTrainStep
	// uses, serial and at NumCPU.
	const inDim, batch = 64, 128
	for _, mode := range []struct {
		name        string
		parallelism int
	}{{"serial", 1}, {"parallel", 0}} {
		mlp := nn.NewMLP("bench", []int{inDim, 256, 256, 64, 1}, rand.New(rand.NewSource(1)))
		params := mlp.Params()
		samples := make([]nn.Vec, batch)
		targets := make([]float64, batch)
		for i := range samples {
			samples[i] = make(nn.Vec, inDim)
			for j := range samples[i] {
				samples[i][j] = rng.Float64()*2 - 1
			}
			targets[i] = rng.Float64()
		}
		trainer := nn.NewTrainer(params, mode.parallelism, func() ([]*nn.Param, nn.SampleFunc) {
			rep := mlp.ShareWeights()
			return rep.Params(), func(i int) float64 {
				y, back := rep.Forward(samples[i])
				d := y[0] - targets[i]
				back(nn.Vec{2 * d / batch})
				return d * d
			}
		})
		opt := &nn.SGD{LR: 0.01}
		step := func() {
			trainer.Step(batch)
			opt.Step(params)
		}
		step()
		name := "nn.train_step_" + mode.name
		for i := 0; i < 25; i++ {
			l.t.time(name, -1, l.nextReq(), step)
		}
		l.set(name+"_ms", l.medianUS(name)/1e3, unitMS)
		if mode.parallelism == 1 {
			l.set("nn.train_step_allocs", mallocs(func() {
				for i := 0; i < 5; i++ {
					step()
				}
			})/5, unitCount)
		}
	}
	return nil
}

// --- serve and net/http: the estimate handler on the live workloads' bodies -------

// discard is a ResponseWriter that keeps the status and drops the body,
// so a handler is timed without a recorder's buffer growth.
type discard struct {
	h      http.Header
	status int
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }
func (d *discard) WriteHeader(status int)      { d.status = status }

func (l *layerRun) serving() error {
	h := l.h
	// The daemon runs with the registry's spans on.
	obs.Enable()
	defer obs.Disable()
	cfg := core.WKConfig()
	cfg.Seed = 1
	cfg.Estimator = core.EstimatorWideDeep
	cfg.Selector = core.SelectorTopkBen
	// What the handler costs does not depend on how well the model is
	// trained, so the in-process server trains for two epochs, not twenty.
	cfg.WDTrain.Epochs = 2
	srv, err := serve.New(workload.WK1(), cfg, serve.Config{})
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if cerr := srv.Close(ctx); cerr != nil {
			l.r.op("replay_serving_close", cerr)
		}
	}()
	handler := srv.Handler()
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/views", nil))
	var vs viewSet
	if err := json.Unmarshal(rec.Body.Bytes(), &vs); err != nil || len(vs.Views) == 0 {
		return fmt.Errorf("in-process server's view set: %v (%d views)", err, len(vs.Views))
	}
	views := vs.sqls()
	cat := l.w.Cat
	model := l.model

	post := func(body []byte) error {
		w := &discard{h: http.Header{}}
		req := httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(body))
		handler.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			return fmt.Errorf("in-process estimate answered %d", w.status)
		}
		return nil
	}
	// handle replays one body: the handler under a span, then the public
	// layers it is made of, on the same statements, as its siblings.
	handle := func(kind string, body []byte) error {
		req := l.nextReq()
		root := l.t.start("replay."+kind, -1, req)
		var herr error
		l.t.time("serve.handle_"+kind, root, req, func() { herr = post(body) })
		if herr != nil {
			return herr
		}
		var eb estimateBody
		if err := json.Unmarshal(body, &eb); err != nil {
			return err
		}
		ex := featenc.NewBatchExtractor(cat)
		fs := make([]featenc.Features, 0, len(eb.Pairs))
		for _, pr := range eb.Pairs {
			var pf [2]*featenc.PlanFeat
			for k, sql := range [2]string{pr.Query, pr.View} {
				raw := []byte(sql)
				var err error
				l.t.time(kind+":sqlparse.fingerprint", root, req, func() { _, err = sqlparse.FingerprintBytes(raw) })
				if err != nil {
					return err
				}
				if kind == "hot" {
					continue
				}
				var node *plan.Node
				if kind == "novel" {
					var stmt *sqlparse.SelectStmt
					l.t.time(kind+":sqlparse.parse", root, req, func() { stmt, err = sqlparse.Parse(sql) })
					if err != nil {
						return err
					}
					l.t.time(kind+":plan.build", root, req, func() { node, err = plan.Build(stmt, cat) })
					if err != nil {
						return err
					}
					l.t.time(kind+":featenc.precompute", root, req, func() { pf[k] = featenc.Precompute(node) })
				} else {
					// A plan-cache hit skips these; build them untimed.
					if node, err = plan.Parse(sql, cat); err != nil {
						return err
					}
					pf[k] = featenc.Precompute(node)
				}
			}
			if kind != "hot" {
				l.t.time(kind+":featenc.extract", root, req, func() { fs = append(fs, ex.ExtractPre(pf[0], pf[1])) })
			}
		}
		if kind != "hot" {
			l.t.time(kind+":widedeep.predict_batch16", root, req, func() { model.PredictBatch(fs, runtime.NumCPU()) })
		}
		l.t.end(root)
		return nil
	}

	// estimate_hot's bodies, primed.
	hot, err := hotSet(h.seed, h.queries, views)
	if err != nil {
		return err
	}
	for _, b := range hot {
		if err := post(b); err != nil {
			return err
		}
	}
	for _, b := range hot {
		if err := handle("hot", b); err != nil {
			return err
		}
	}
	l.set("serve.handle_hot_allocs", mallocs(func() {
		for _, b := range hot {
			if perr := post(b); perr != nil {
				err = perr
			}
		}
	})/float64(len(hot)), unitCount)
	if err != nil {
		return err
	}

	// estimate_novel's bodies: nothing is cached.
	novel := newNovelStream(h.seed, 0, 1, h.tmpl)
	for i := 0; i < 8; i++ {
		if err := post(novel.estimateBody()); err != nil {
			return err
		}
	}
	for i := 0; i < 64; i++ {
		if err := handle("novel", novel.estimateBody()); err != nil {
			return err
		}
	}

	// advise_mixed's reader: every text's plan is cached, the pairs are
	// not. One request per query warms the plan cache first.
	for i := 0; i < len(h.queries); i += pairsPerRequest {
		var eb estimateBody
		for k := i; k < i+pairsPerRequest && k < len(h.queries); k++ {
			eb.Pairs = append(eb.Pairs, estimatePair{Query: h.queries[k], View: views[k%len(views)]})
		}
		if err := post(mustJSON(eb)); err != nil {
			return err
		}
	}
	mixed := newMixedStream(h.seed, 0, h.queries, views)
	for i := 0; i < 64; i++ {
		if err := handle("planhit", mixed.estimateBody()); err != nil {
			return err
		}
	}

	for _, kind := range []string{"hot", "novel", "planhit"} {
		l.set("serve.handle_"+kind+"_us", l.medianUS("serve.handle_"+kind), unitUS)
		layers := map[string]float64{}
		for _, layer := range []string{"sqlparse.fingerprint", "sqlparse.parse", "plan.build", "featenc.precompute", "featenc.extract", "widedeep.predict_batch16"} {
			if d := l.totalOf(kind + ":" + layer); d > 0 {
				layers[layer] = us(d)
			}
		}
		row := reconcile("serve.handle_"+kind+" against the public layers on the same bodies",
			"serve.handle_"+kind, us(l.totalOf("serve.handle_"+kind)), unitUS, layers).separate()
		l.r.Reconcile = append(l.r.Reconcile, row)
		if kind != "planhit" {
			l.set("serve.unattributed_share_"+kind, row.Unattributed, unitRatio)
		}
	}

	// The same handler behind a real listener: what loopback TCP and
	// net/http add for one caller.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: handler}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	rng := rand.New(rand.NewSource(h.seed))
	stream := func() request {
		return request{body: hot[rng.Intn(len(hot))], check: func(status int, _ []byte) error {
			if status != http.StatusOK {
				return fmt.Errorf("status %d", status)
			}
			return nil
		}}
	}
	closedLoop(context.Background(), ln.Addr().String(), []func() request{stream}, 300*time.Millisecond, false)
	load := closedLoop(context.Background(), ln.Addr().String(), []func() request{stream}, 1500*time.Millisecond, true)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if load.failed > 0 || len(load.samples) == 0 || len(load.ttfb) == 0 {
		return fmt.Errorf("loopback probe: %d samples, %d failed: %v", len(load.samples), load.failed, load.failures)
	}
	client := us(medianDuration(load.samples))
	l.set("http.loopback_us", client-l.medianUS("serve.handle_hot"), unitUS)
	l.set("http.ttfb_us", us(medianDuration(load.ttfb)), unitUS)
	l.r.Reconcile = append(l.r.Reconcile, reconcile("one caller's estimate_hot request over loopback",
		"client p50", client, unitUS, map[string]float64{
			"serve.handle_hot": l.medianUS("serve.handle_hot"),
			"http.loopback":    client - l.medianUS("serve.handle_hot"),
		}))
	return nil
}

// --- durable: the WAL under each fsync policy, snapshots, recovery ----------------

func (l *layerRun) durability() error {
	const appendsPerSpan = 8
	burst := l.h.queries[:ingestQueries]
	for _, pol := range []struct {
		name   string
		policy durable.FsyncPolicy
		spans  int
	}{
		{"always", durable.FsyncAlways, 12},
		{"interval", durable.FsyncInterval, 40},
		{"off", durable.FsyncOff, 40},
	} {
		dir, err := l.h.tempDir("wal-" + pol.name)
		if err != nil {
			return err
		}
		err = func() error {
			st, err := durable.Open(durable.Options{Dir: dir, Fsync: pol.policy, SnapshotEvery: -1, WindowCap: 512})
			if err != nil {
				return err
			}
			name := "durable.append_" + pol.name
			for i := 0; i < pol.spans; i++ {
				// Appends are queued; the span ends when the writer has
				// put them on disk the way the policy says.
				var aerr error
				l.t.time(name+"x8", -1, l.nextReq(), func() {
					for k := 0; k < appendsPerSpan && aerr == nil; k++ {
						aerr = st.AppendIngest(burst)
					}
					if aerr == nil {
						aerr = st.Sync()
					}
				})
				if aerr != nil {
					return aerr
				}
			}
			l.set(name+"_us", l.medianUS(name+"x8")/appendsPerSpan, unitUS)
			if pol.policy == durable.FsyncInterval {
				// A snapshot of a full window, and recovery from it plus
				// a replay of the records after it.
				snap := &durable.Snapshot{LSN: st.LastLSN(), WindowSQL: l.h.queries[:512], WindowTotal: 512}
				for i := 0; i < 5; i++ {
					var serr error
					l.t.time("durable.snapshot", -1, l.nextReq(), func() { serr = st.WriteSnapshot(snap) })
					if serr != nil {
						return serr
					}
				}
				l.set("durable.snapshot_ms", l.medianUS("durable.snapshot")/1e3, unitMS)
				for k := 0; k < 2*ingestRequests; k++ {
					if err := st.AppendIngest(burst); err != nil {
						return err
					}
				}
			}
			if err := st.Close(); err != nil {
				return err
			}
			if pol.policy == durable.FsyncInterval {
				for i := 0; i < 5; i++ {
					var rerr error
					l.t.time("durable.recover", -1, l.nextReq(), func() { _, _, rerr = durable.Recover(dir, 512) })
					if rerr != nil {
						return rerr
					}
				}
				l.set("durable.recover_ms", l.medianUS("durable.recover")/1e3, unitMS)
			}
			return nil
		}()
		if rmErr := os.RemoveAll(dir); err == nil {
			err = rmErr
		}
		if err != nil {
			return fmt.Errorf("%s: %w", filepath.Base(dir), err)
		}
	}
	return nil
}

// --- obs and the build ---------------------------------------------------------------

func (l *layerRun) misc() error {
	obs.Disable()
	const calls = 200000
	for i := 0; i < 20; i++ {
		l.t.time("obs.disabled_span_x200000", -1, l.nextReq(), func() {
			for k := 0; k < calls; k++ {
				obs.StartSpan("bench.disabled")()
			}
		})
	}
	l.set("obs.disabled_span_ns", l.medianUS("obs.disabled_span_x200000")*1e3/calls, unitNS)
	l.set("build.compile_s", l.h.compileS, unitS)
	return nil
}
