package mvs_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"autoview/internal/mvs"
	"autoview/internal/obs"
)

// overlapTriangle reports whether some row has three selected
// positive-benefit views that pairwise overlap — a row the climb's
// conflict-free shortcut cannot take, so the row solver must run MWIS.
func overlapTriangle(in *mvs.Instance, z []bool) bool {
	for _, row := range in.Benefit {
		var on []int
		for j, b := range row {
			if z[j] && b > 0 {
				on = append(on, j)
			}
		}
		for a := range on {
			for b := a + 1; b < len(on); b++ {
				for c := b + 1; c < len(on); c++ {
					if in.Overlap[on[a]][on[b]] && in.Overlap[on[a]][on[c]] && in.Overlap[on[b]][on[c]] {
						return true
					}
				}
			}
		}
	}
	return false
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestLocalSearchMatchesPerMoveOracle pins the climb's cached row
// evaluation to the per-move one it replaced: at every step the delta
// vector is bit-identical to the oracle's, and the final selection,
// utility, trace and counts are identical, while the climb runs no more
// row solves (mvs.localsearch.rowsolves) than the oracle does, and fewer
// on every random and dense instance.
func TestLocalSearchMatchesPerMoveOracle(t *testing.T) {
	cases := map[string]*mvs.Instance{}
	for name, in := range propInstances() {
		cases["prop/"+name] = in
	}
	rng := rand.New(rand.NewSource(2929))
	for trial := 0; trial < 8; trial++ {
		cases[fmt.Sprintf("dense/%d", trial)] = seededInstance(rng, 4+rng.Intn(10), 6+rng.Intn(8), 0.8, 0.8)
		cases[fmt.Sprintf("tiny/%d", trial)] = seededInstance(rng, 1+rng.Intn(4), 1+trial%2, 0.5, 0.7)
	}
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)

	rowSolves := obs.Default.Counter("mvs.localsearch.rowsolves", "")
	triangles := 0
	for _, name := range names {
		in := cases[name]
		opts := func() mvs.LocalSearchOptions {
			return mvs.LocalSearchOptions{Rand: rand.New(rand.NewSource(17))}
		}
		before := rowSolves.Value()
		got := mvs.LocalSearch(in, opts())
		solved := rowSolves.Value() - before

		steps := 0
		want, oracleSolves := mvs.LocalSearchOracle(in, opts(), func(z []bool, fast, oracle []float64) {
			steps++
			if overlapTriangle(in, z) {
				triangles++
			}
			if len(fast) != len(oracle) {
				t.Fatalf("%s step %d: %d deltas, oracle %d", name, steps, len(fast), len(oracle))
			}
			for m := range fast {
				if !sameBits(fast[m], oracle[m]) {
					t.Fatalf("%s step %d move %d: delta %v, oracle %v", name, steps, m, fast[m], oracle[m])
				}
			}
		})

		if !sameBits(got.BestUtility, want.BestUtility) {
			t.Errorf("%s: utility %v, oracle %v", name, got.BestUtility, want.BestUtility)
		}
		if got.Moves != want.Moves || got.Evaluations != want.Evaluations || got.BestRestart != want.BestRestart {
			t.Errorf("%s: moves/evals/restart %d/%d/%d, oracle %d/%d/%d", name,
				got.Moves, got.Evaluations, got.BestRestart, want.Moves, want.Evaluations, want.BestRestart)
		}
		if len(got.Trace) != len(want.Trace) {
			t.Fatalf("%s: trace length %d, oracle %d", name, len(got.Trace), len(want.Trace))
		}
		for i := range got.Trace {
			if !sameBits(got.Trace[i], want.Trace[i]) {
				t.Fatalf("%s: trace diverges at move %d", name, i)
			}
		}
		for j := range got.Best.Z {
			if got.Best.Z[j] != want.Best.Z[j] {
				t.Fatalf("%s: selection differs at view %d", name, j)
			}
		}
		for i := range got.Best.Y {
			for j := range got.Best.Y[i] {
				if got.Best.Y[i][j] != want.Best.Y[i][j] {
					t.Fatalf("%s: usage differs at (%d,%d)", name, i, j)
				}
			}
		}
		// A row is solved at most once per move, so the climb never
		// solves more than the oracle; it ties only when no swap touches
		// a row just one of its views serves (as on some |Z| ≤ 2 and
		// benefit-clique instances), which the random and dense pools
		// always have.
		if solved > int64(oracleSolves) {
			t.Errorf("%s: %d row solves, above the oracle's %d", name, solved, oracleSolves)
		}
		strict := strings.HasPrefix(name, "dense/") || strings.HasPrefix(name, "prop/random-")
		if strict && solved >= int64(oracleSolves) {
			t.Errorf("%s: %d row solves, not below the oracle's %d", name, solved, oracleSolves)
		}
	}
	if triangles == 0 {
		t.Error("no climb step had a row with three mutually overlapping selected views: the MWIS branch went unexercised")
	}
}
