// Command costmodel trains the Wide-Deep cost estimator on a workload's
// measured (query, view, cost) pairs, evaluates it on a held-out split,
// and optionally persists the trained weights — the offline-training
// component of the paper's Figure 3.
//
// Usage:
//
//	costmodel [-workload job|wk1|wk2] [-variant wd|nkw|nstr|nexp]
//	          [-epochs N] [-save model.json] [-load model.json]
//	          [-stats] [-obs-addr host:port] [-log-level debug|info|warn|error]
//
// The observability flags are shared with viewgen and documented in
// OBSERVABILITY.md; -stats prints the wd.train/wd.infer metrics after the
// run.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"

	"autoview/internal/costbase"
	"autoview/internal/durable"
	"autoview/internal/engine"
	"autoview/internal/equiv"
	"autoview/internal/featenc"
	"autoview/internal/metrics"
	"autoview/internal/obs"
	"autoview/internal/rewrite"
	"autoview/internal/widedeep"
	"autoview/internal/workload"
	"math/rand"
)

func main() {
	wl := flag.String("workload", "job", "workload: job, wk1, wk2")
	variant := flag.String("variant", "wd", "architecture: wd, nkw, nstr, nexp")
	epochs := flag.Int("epochs", 25, "training epochs (Algorithm 1's I)")
	savePath := flag.String("save", "", "persist trained weights to this file")
	loadPath := flag.String("load", "", "load weights instead of training")
	seed := flag.Int64("seed", 17, "random seed")
	var obsFlags obs.Flags
	obsFlags.Register(flag.CommandLine)
	flag.Parse()

	if err := obsFlags.Start(os.Stderr); err != nil {
		fail(err)
	}

	w, err := workload.Open(*wl, "", "")
	if err != nil {
		fail(err)
	}
	encCfg, err := pickVariant(*variant)
	if err != nil {
		fail(err)
	}

	fmt.Printf("measuring (query, view) pairs on %s...\n", w.Name)
	samples, err := measurePairs(w)
	if err != nil {
		fail(err)
	}
	trainIdx, _, testIdx := metrics.Split(len(samples), 0.7, 0.1, *seed)
	fmt.Printf("%d pairs: %d train / %d test\n", len(samples), len(trainIdx), len(testIdx))

	vocab := featenc.NewVocab(w.Cat, featenc.CollectPlanKeywords(w.Plans()))
	encCfg.EmbedDim, encCfg.Hidden = 16, 16
	model := widedeep.New(vocab, widedeep.Config{Encoder: encCfg}, rand.New(rand.NewSource(*seed)))

	if *loadPath != "" {
		f, err := os.Open(*loadPath)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := model.Load(f); err != nil {
			fail(err)
		}
		fmt.Printf("loaded weights from %s\n", *loadPath)
	} else {
		var train []widedeep.Sample
		for _, i := range trainIdx {
			train = append(train, widedeep.Sample{F: samples[i].F, Y: samples[i].Actual})
		}
		fmt.Printf("training %s for %d epochs...\n", widedeep.VariantName(encCfg), *epochs)
		losses, err := model.Fit(train, widedeep.TrainConfig{
			Epochs: *epochs, LearnRate: 0.005, BatchSize: 16, Seed: *seed,
		})
		if err != nil {
			fail(err)
		}
		fmt.Printf("training loss: first=%.4f last=%.4f\n", losses[0], losses[len(losses)-1])
	}

	var y, yhat []float64
	for _, i := range testIdx {
		y = append(y, samples[i].Actual)
		yhat = append(yhat, model.Predict(samples[i].F))
	}
	fmt.Printf("held-out: MAE=%.4f cost units, MAPE=%.2f%%\n",
		metrics.MAE(y, yhat), metrics.MAPEWithFloor(y, yhat))

	if *savePath != "" {
		// Atomic and durable: a crash mid-save never leaves a truncated
		// checkpoint where /v1/admin/model would load it.
		var buf bytes.Buffer
		if err := model.Save(&buf); err != nil {
			fail(err)
		}
		if err := durable.WriteFile(*savePath, buf.Bytes()); err != nil {
			fail(err)
		}
		fmt.Printf("weights saved to %s\n", *savePath)
	}

	obsFlags.Report(os.Stdout)
}

// measurePairs executes every (associated query, candidate view) rewrite
// on the engine to collect training targets.
func measurePairs(w *workload.Workload) ([]costbase.Sample, error) {
	st := w.Populate()
	exec := engine.New(st)
	mgr := rewrite.NewManager(st)
	pricing := engine.DefaultPricing()
	pre := equiv.Preprocess(w.Plans(), nil)
	var out []costbase.Sample
	for _, cand := range pre.Candidates {
		v, err := mgr.Materialize(cand.Plan)
		if err != nil {
			return nil, err
		}
		for _, qi := range cand.Queries {
			q := w.Queries[qi].Plan
			rw, n := rewrite.Rewrite(q, []*rewrite.View{v})
			if n == 0 {
				continue
			}
			u, err := exec.Cost(rw)
			if err != nil {
				return nil, err
			}
			out = append(out, costbase.Sample{
				Q: q, V: cand.Plan,
				F:      featenc.Extract(q, cand.Plan, w.Cat),
				Actual: u.Cost(pricing) * 1e4,
			})
		}
	}
	return out, nil
}

// pickVariant looks name up among widedeep.Variants(), ignoring case and
// accepting each label with or without its hyphen ("n-kw", "nkw").
func pickVariant(name string) (featenc.Config, error) {
	want := strings.ToLower(name)
	for label, cfg := range widedeep.Variants() {
		if l := strings.ToLower(label); want == l || want == strings.ReplaceAll(l, "-", "") {
			return cfg, nil
		}
	}
	return featenc.Config{}, fmt.Errorf("unknown variant %q", name)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "costmodel:", err)
	os.Exit(1)
}
