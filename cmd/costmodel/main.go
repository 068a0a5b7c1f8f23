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
	"io"
	"math/rand"
	"os"
	"strings"

	"autoview/internal/core"
	"autoview/internal/costbase"
	"autoview/internal/durable"
	"autoview/internal/featenc"
	"autoview/internal/metrics"
	"autoview/internal/obs"
	"autoview/internal/widedeep"
	"autoview/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "costmodel:", err)
		os.Exit(1)
	}
}

// run is the command: it parses args and writes its report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("costmodel", flag.ExitOnError)
	wl := fs.String("workload", "job", "workload: job, wk1, wk2")
	variant := fs.String("variant", "wd", "architecture: wd, nkw, nstr, nexp")
	epochs := fs.Int("epochs", 25, "training epochs (Algorithm 1's I)")
	savePath := fs.String("save", "", "persist trained weights to this file")
	loadPath := fs.String("load", "", "load weights instead of training")
	seed := fs.Int64("seed", 17, "random seed")
	var obsFlags obs.Flags
	obsFlags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if err := obsFlags.Start(os.Stderr); err != nil {
		return err
	}

	w, err := workload.Open(*wl, "", "")
	if err != nil {
		return err
	}
	encCfg, err := pickVariant(*variant)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "measuring (query, view) pairs on %s...\n", w.Name)
	samples, err := measurePairs(w)
	if err != nil {
		return err
	}
	trainIdx, _, testIdx := metrics.Split(len(samples), 0.7, 0.1, *seed)
	fmt.Fprintf(stdout, "%d pairs: %d train / %d test\n", len(samples), len(trainIdx), len(testIdx))

	vocab := featenc.NewVocab(w.Cat, featenc.CollectPlanKeywords(w.Plans()))
	encCfg.EmbedDim, encCfg.Hidden = 16, 16
	model := widedeep.New(vocab, widedeep.Config{Encoder: encCfg}, rand.New(rand.NewSource(*seed)))

	if *loadPath != "" {
		f, err := os.Open(*loadPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := model.Load(f); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "loaded weights from %s\n", *loadPath)
	} else {
		var train []widedeep.Sample
		for _, i := range trainIdx {
			train = append(train, widedeep.Sample{F: samples[i].F, Y: samples[i].Actual})
		}
		fmt.Fprintf(stdout, "training %s for %d epochs...\n", widedeep.VariantName(encCfg), *epochs)
		losses, err := model.Fit(train, widedeep.TrainConfig{
			Epochs: *epochs, LearnRate: 0.005, BatchSize: 16, Seed: *seed,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "training loss: first=%.4f last=%.4f\n", losses[0], losses[len(losses)-1])
	}

	var y, yhat []float64
	for _, i := range testIdx {
		y = append(y, samples[i].Actual)
		yhat = append(yhat, model.Predict(samples[i].F))
	}
	fmt.Fprintf(stdout, "held-out: MAE=%.4f cost units, MAPE=%.2f%%\n",
		metrics.MAE(y, yhat), metrics.MAPEWithFloor(y, yhat))

	if *savePath != "" {
		// Atomic and durable: a crash mid-save never leaves a truncated
		// checkpoint where /v1/admin/model would load it.
		var buf bytes.Buffer
		if err := model.Save(&buf); err != nil {
			return err
		}
		if err := durable.WriteFile(*savePath, buf.Bytes()); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "weights saved to %s\n", *savePath)
	}

	obsFlags.Report(stdout)
	return nil
}

// measurePairs meters every (associated query, candidate view) pair of
// w whose view rewrites the query, as core meters benefits (each from
// the query's traced execution), and returns them as training samples.
func measurePairs(w *workload.Workload) ([]costbase.Sample, error) {
	cfg := core.ConfigFor(w.Name)
	cfg.Estimator = core.EstimatorActual
	adv, pre := core.BringUp(w, cfg)
	p, err := adv.BuildProblem(w.Plans(), pre)
	if err != nil {
		return nil, err
	}
	pairs, err := adv.Pairs(p)
	if err != nil {
		return nil, err
	}
	var out []costbase.Sample
	for _, pr := range pairs {
		if pr.Replaced == 0 {
			continue
		}
		q, v := p.Queries[pr.Query], p.Candidates[pr.Candidate].Plan
		actual := pr.Usage.Cost(cfg.Pricing) * costbase.CostUnit
		out = append(out, costbase.Sample{Q: q, V: v, F: featenc.Extract(q, v, w.Cat), Actual: actual})
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
