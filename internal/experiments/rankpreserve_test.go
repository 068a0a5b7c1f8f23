package experiments

import (
	"math/rand"
	"reflect"
	"testing"

	"autoview/internal/core"
	"autoview/internal/engine"
	"autoview/internal/featenc"
	"autoview/internal/mvs"
	"autoview/internal/nn"
	"autoview/internal/selbase"
	"autoview/internal/workload"
)

// Estimate-level f32/f64 parity budget in scaled (training) units,
// matching widedeep's predict budget; the absolute term is divided by
// the problem's cost scale when comparing dollar-valued estimates.
const (
	estRTol = 1e-5
	estATol = 1e-6
)

// TestF32RankPreservation is the end-to-end guarantee behind the f32
// serving kernels: on the seeded JOB and WK1 workloads (WK1 is what the
// benchmark's daemon serves) with a trained W-D estimator, estimating
// through the f32 kernels (Predict) instead of the f64 training forward
// (PredictReference) must not flip any decision downstream of the
// estimates —
//
//   - every f32 estimate stays within the pinned tolerance of its f64
//     twin,
//   - TopkBen ranks the candidate views in the same order and selects
//     the same best-k prefix, and
//   - IterView run on f32-estimated benefits reaches the same selection
//     as on f64-estimated benefits under the same seed.
//
// The DQN has no f32 path to compare (it is f64 end to end). Tolerance
// rationale and the f64-train/f32-infer contract are in PERFORMANCE.md.
func TestF32RankPreservation(t *testing.T) {
	if raceEnabled {
		t.Skip("deterministic single-goroutine pipeline; too slow under -race")
	}
	for _, w := range []*workload.Workload{workload.JOB(), workload.WK1()} {
		t.Run(w.Name, func(t *testing.T) { rankPreservation(t, w) })
	}
}

func rankPreservation(t *testing.T, w *workload.Workload) {
	cfg := configFor(w.Name, Quick)
	cfg.Estimator = core.EstimatorWideDeep
	cfg.WDTrain.Epochs = 6 // enough training to differentiate candidates
	adv := core.NewAdvisor(w.Cat, engine.New(w.Populate()), cfg)
	pre := adv.Preprocess(w.Plans())
	p, err := adv.BuildProblem(w.Plans(), pre)
	if err != nil {
		t.Fatal(err)
	}
	if p.Model == nil {
		t.Fatal("BuildProblem trained no W-D model")
	}
	scale := p.CostScale()

	assocIndex := make(map[int]int, len(p.AssocQueries))
	for ai, qi := range p.AssocQueries {
		assocIndex[qi] = ai
	}

	// Re-estimate every associated (query, candidate) pair on both
	// forwards and build one benefit instance per forward.
	estimate := func(predict func(featenc.Features) float64) (*mvs.Instance, []float64) {
		ben := make([][]float64, len(p.AssocQueries))
		for i := range ben {
			ben[i] = make([]float64, len(p.Candidates))
		}
		var ests []float64
		for j, c := range p.Candidates {
			for _, qi := range c.Queries {
				f := featenc.Extract(p.Queries[qi], c.View.Plan, adv.Cat)
				est := predict(f) / scale
				ests = append(ests, est)
				ben[assocIndex[qi]][j] = p.QueryCost[qi] - est
			}
		}
		return &mvs.Instance{Benefit: ben, Overhead: p.Instance.Overhead, Overlap: p.Instance.Overlap}, ests
	}
	in32, est32 := estimate(p.Model.Predict)
	in64, est64 := estimate(p.Model.PredictReference)
	if len(est32) == 0 {
		t.Fatal("no associated pairs to estimate")
	}

	// (a) Per-estimate tolerance (atol widened into dollar units).
	for i := range est32 {
		if !nn.AlmostEqual(est32[i], est64[i], estRTol, estATol/scale) {
			t.Fatalf("estimate %d: f32 %v vs f64 %v (diff %g) outside rtol %g",
				i, est32[i], est64[i], est32[i]-est64[i], estRTol)
		}
	}

	// (b) TopkBen: identical candidate ranking and best-k selection.
	r32 := selbase.Ranking(in32, p.Frequencies(), selbase.TopkBen)
	r64 := selbase.Ranking(in64, p.Frequencies(), selbase.TopkBen)
	if !reflect.DeepEqual(r32, r64) {
		t.Fatalf("TopkBen ranking flipped:\n f32 %v\n f64 %v", r32, r64)
	}
	k32, _ := selbase.BestK(in32, p.Frequencies(), selbase.TopkBen)
	k64, _ := selbase.BestK(in64, p.Frequencies(), selbase.TopkBen)
	if k32 != k64 {
		t.Fatalf("TopkBen best k diverged: f32 %d, f64 %d", k32, k64)
	}

	// (c) IterView: same seed, same selection on both instances.
	iv32 := mvs.IterView(in32, mvs.IterOptions{Iterations: 40, Rand: rand.New(rand.NewSource(9))})
	iv64 := mvs.IterView(in64, mvs.IterOptions{Iterations: 40, Rand: rand.New(rand.NewSource(9))})
	if !reflect.DeepEqual(iv32.Best.Z, iv64.Best.Z) {
		t.Fatalf("IterView selection flipped:\n f32 %v\n f64 %v", iv32.Best.Z, iv64.Best.Z)
	}
}
