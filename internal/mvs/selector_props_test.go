// Package mvs_test hosts the cross-selector property layer: every
// selector the advisor can run — Top-kBen, IterView, DQN and local
// search — is driven through one shared set of invariants
// (feasibility, duplicate-free fingerprint-ordered selections, utility
// bit-identical to core benefit accounting, determinism across seeds and
// Parallelism) plus asserted optimality-gap bounds against OptimalExact.
// It lives in an external test package so it can import internal/rl and
// internal/selbase without a cycle.
package mvs_test

import (
	"math/rand"
	"testing"

	"autoview/internal/mvs"
	"autoview/internal/rl"
	"autoview/internal/selbase"
)

// propSelector adapts one selector to the property layer. run must return
// the selected state and the utility the selector itself reported (not a
// recomputation). parallel selectors accept a Parallelism knob whose
// setting must never change the answer.
type propSelector struct {
	name string
	// maxGap is the asserted optimality-gap bound ((opt−u)/opt) on the
	// property instances. Bounds are tightened to the empirically
	// observed worst case plus slack, so quality regressions fail loudly.
	maxGap   float64
	parallel bool
	run      func(in *mvs.Instance, seed int64, parallelism int) (*mvs.State, float64)
}

func propSelectors() []propSelector {
	return []propSelector{
		{
			name:   "topkben",
			maxGap: 0.15, // observed worst 0.050
			run: func(in *mvs.Instance, seed int64, _ int) (*mvs.State, float64) {
				k, u := selbase.BestK(in, nil, selbase.TopkBen)
				ranking := selbase.Ranking(in, nil, selbase.TopkBen)
				st := mvs.NewState(in)
				for _, j := range ranking[:k] {
					st.Z[j] = true
				}
				st.Y, _ = in.BestY(st.Z)
				return st, u
			},
		},
		{
			name:   "iterview",
			maxGap: 0.15, // observed worst 0.050
			run: func(in *mvs.Instance, seed int64, _ int) (*mvs.State, float64) {
				res := mvs.IterView(in, mvs.IterOptions{
					Iterations: 60,
					Rand:       rand.New(rand.NewSource(seed)),
				})
				return res.Best, res.BestUtility
			},
		},
		{
			name:     "dqn",
			maxGap:   0.20, // observed worst 0.091 at these tiny training budgets
			parallel: true,
			run: func(in *mvs.Instance, seed int64, parallelism int) (*mvs.State, float64) {
				res := rl.RLView(in, rl.Options{
					InitIterations:  4,
					Epochs:          5,
					MemoryThreshold: 8,
					LearnEvery:      2,
					Agent:           rl.AgentConfig{Parallelism: parallelism, Seed: 77},
					Rand:            rand.New(rand.NewSource(seed)),
				})
				return res.Best, res.BestUtility
			},
		},
		{
			name:   "localsearch",
			maxGap: 1e-6, // hits the exact optimum on every property instance
			run: func(in *mvs.Instance, seed int64, _ int) (*mvs.State, float64) {
				res := mvs.LocalSearch(in, mvs.LocalSearchOptions{Rand: rand.New(rand.NewSource(seed))})
				return res.Best, res.BestUtility
			},
		},
	}
}

// seededInstance builds a random instance: overheads in [0.1, 2.1), each
// view pair overlapping with probability overlapP, and each benefit
// positive (uniform in [0, 3)) with probability benefitP.
func seededInstance(rng *rand.Rand, nq, nv int, overlapP, benefitP float64) *mvs.Instance {
	in := &mvs.Instance{
		Benefit:  make([][]float64, nq),
		Overhead: make([]float64, nv),
		Overlap:  make([][]bool, nv),
	}
	for j := range in.Overlap {
		in.Overhead[j] = rng.Float64()*2 + 0.1
		in.Overlap[j] = make([]bool, nv)
	}
	for j := 0; j < nv; j++ {
		for k := j + 1; k < nv; k++ {
			if rng.Float64() < overlapP {
				in.Overlap[j][k], in.Overlap[k][j] = true, true
			}
		}
	}
	for i := range in.Benefit {
		in.Benefit[i] = make([]float64, nv)
		for j := range in.Benefit[i] {
			if rng.Float64() < benefitP {
				in.Benefit[i][j] = rng.Float64() * 3
			}
		}
	}
	return in
}

// propInstances builds the shared instance pool: seeded random instances
// plus structured corner shapes (overlap clique, no overlap, dominated
// views). All are small enough for OptimalExact to finish instantly, so
// gap assertions are against the true optimum.
func propInstances() map[string]*mvs.Instance {
	rng := rand.New(rand.NewSource(12345))
	pool := map[string]*mvs.Instance{}
	for trial := 0; trial < 6; trial++ {
		nq, nv := 3+rng.Intn(8), 3+rng.Intn(7)
		pool["random-"+string(rune('a'+trial))] = seededInstance(rng, nq, nv, 0.25, 0.5)
	}

	clique := &mvs.Instance{
		Benefit:  [][]float64{{5, 4, 3}, {2, 6, 1}, {3, 3, 3}},
		Overhead: []float64{1, 1, 1},
		Overlap:  make([][]bool, 3),
	}
	for j := range clique.Overlap {
		clique.Overlap[j] = []bool{j != 0, j != 1, j != 2}
	}
	pool["overlap-clique"] = clique

	pool["no-overlap"] = &mvs.Instance{
		Benefit:  [][]float64{{2, 0, 3}, {0, 4, 1}},
		Overhead: []float64{0.5, 0.5, 0.5},
		Overlap:  [][]bool{{false, false, false}, {false, false, false}, {false, false, false}},
	}

	pool["all-dominated"] = &mvs.Instance{
		Benefit:  [][]float64{{1, 2}},
		Overhead: []float64{5, 5},
		Overlap:  [][]bool{{false, false}, {false, false}},
	}
	return pool
}

// TestSelectorProperties is the shared differential-correctness gate:
// every selector on every property instance must produce a feasible,
// duplicate-free, fingerprint-ordered selection whose reported utility is
// bit-identical to core benefit accounting, and must land within its
// asserted gap of the exact optimum.
func TestSelectorProperties(t *testing.T) {
	pool := propInstances()
	for _, sel := range propSelectors() {
		sel := sel
		t.Run(sel.name, func(t *testing.T) {
			for name, in := range pool {
				opt := mvs.OptimalExact(in, 0)
				st, reported := sel.run(in, 404, 1)

				if !in.Feasible(st) {
					t.Errorf("%s: infeasible state", name)
				}
				// The candidate axis is fingerprint-sorted upstream, so
				// ascending duplicate-free indices = fingerprint order.
				selected := mvs.SelectedViews(st.Z)
				for i := 1; i < len(selected); i++ {
					if selected[i] <= selected[i-1] {
						t.Fatalf("%s: selection not strictly ascending: %v", name, selected)
					}
				}
				if u := in.Utility(st); u != reported {
					t.Errorf("%s: reported utility %v != core accounting %v", name, reported, u)
				}
				if reported < -1e-9 {
					t.Errorf("%s: negative utility %v (empty selection was available)", name, reported)
				}
				if opt.Utility > 1e-12 {
					gap := (opt.Utility - reported) / opt.Utility
					if gap > sel.maxGap+1e-9 {
						t.Errorf("%s: gap %.4f exceeds bound %.4f (utility %v vs optimum %v)",
							name, gap, sel.maxGap, reported, opt.Utility)
					}
				} else if reported > opt.Utility+1e-9 {
					t.Errorf("%s: utility %v above optimum %v", name, reported, opt.Utility)
				}
			}
		})
	}
}

// TestSelectorDeterminism re-runs every selector with the same seed and
// requires byte-identical selections and bit-identical utilities; the
// parallel selectors are additionally pinned across Parallelism 1/4/8
// (this test runs under -race in CI, making it the data-race gate too).
func TestSelectorDeterminism(t *testing.T) {
	pool := propInstances()
	// Three instances keep the -race DQN runs cheap.
	names := []string{"random-a", "random-d", "overlap-clique"}
	for _, sel := range propSelectors() {
		sel := sel
		t.Run(sel.name, func(t *testing.T) {
			for _, name := range names {
				in := pool[name]
				refState, refU := sel.run(in, 99, 1)
				runs := [][2]int64{{99, 1}} // {seed, parallelism}
				if sel.parallel {
					runs = append(runs, [2]int64{99, 4}, [2]int64{99, 8})
				} else {
					runs = append(runs, [2]int64{99, 1})
				}
				for _, r := range runs[1:] {
					st, u := sel.run(in, r[0], int(r[1]))
					if u != refU {
						t.Errorf("%s P=%d: utility %v != reference %v", name, r[1], u, refU)
					}
					for j := range st.Z {
						if st.Z[j] != refState.Z[j] {
							t.Fatalf("%s P=%d: selection differs at view %d", name, r[1], j)
						}
					}
					for i := range st.Y {
						for j := range st.Y[i] {
							if st.Y[i][j] != refState.Y[i][j] {
								t.Fatalf("%s P=%d: usage differs at (%d,%d)", name, r[1], i, j)
							}
						}
					}
				}
			}
		})
	}
}
