// Package selbase implements the view-selection baselines of Section VI:
// the iterative method BigSub and the four greedy top-k strategies
// TopkFreq, TopkOver, TopkBen and TopkNorm.
package selbase

import (
	"fmt"
	"math/rand"
	"sort"

	"autoview/internal/mvs"
)

// Strategy ranks candidate subqueries for the greedy methods.
type Strategy int

const (
	// TopkFreq ranks by frequency in the workload (higher first).
	TopkFreq Strategy = iota
	// TopkOver ranks by materialization overhead (lower first).
	TopkOver
	// TopkBen ranks by total benefit for the workload (higher first).
	TopkBen
	// TopkNorm ranks by the utility-to-overhead ratio (higher first).
	TopkNorm
)

// String returns the paper's method name.
func (s Strategy) String() string {
	switch s {
	case TopkFreq:
		return "TopkFreq"
	case TopkOver:
		return "TopkOver"
	case TopkBen:
		return "TopkBen"
	case TopkNorm:
		return "TopkNorm"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Strategies lists all four greedy methods.
func Strategies() []Strategy {
	return []Strategy{TopkFreq, TopkOver, TopkBen, TopkNorm}
}

// Ranking returns candidate indices ordered best-first under the strategy.
// freq supplies per-candidate workload frequencies (used by TopkFreq; may
// be nil for other strategies).
func Ranking(in *mvs.Instance, freq []int, s Strategy) []int {
	nv := in.NumViews()
	idx := make([]int, nv)
	for i := range idx {
		idx[i] = i
	}
	bmax := in.MaxBenefits()
	score := make([]float64, nv)
	switch s {
	case TopkFreq:
		for j := range score {
			if freq != nil {
				score[j] = float64(freq[j])
			}
		}
	case TopkOver:
		for j := range score {
			score[j] = -in.Overhead[j] // bigger overhead, lower rank
		}
	case TopkBen:
		copy(score, bmax)
	case TopkNorm:
		for j := range score {
			if in.Overhead[j] > 0 {
				score[j] = (bmax[j] - in.Overhead[j]) / in.Overhead[j]
			} else {
				score[j] = bmax[j]
			}
		}
	}
	sort.SliceStable(idx, func(a, b int) bool { return score[idx[a]] > score[idx[b]] })
	return idx
}

// SweepK evaluates the utility of materializing the top-k candidates for
// every k in [0, |Z|], producing the curves of Figure 9.
func SweepK(in *mvs.Instance, freq []int, s Strategy) []float64 {
	ranking := Ranking(in, freq, s)
	nv := in.NumViews()
	out := make([]float64, nv+1)
	z := make([]bool, nv)
	for k := 0; k <= nv; k++ {
		if k > 0 {
			z[ranking[k-1]] = true
		}
		out[k] = in.UtilityOfZ(z)
	}
	return out
}

// BestK returns the k maximizing the top-k utility and that utility.
func BestK(in *mvs.Instance, freq []int, s Strategy) (int, float64) {
	curve := SweepK(in, freq, s)
	bestK, bestU := 0, curve[0]
	for k, u := range curve {
		if u > bestU {
			bestK, bestU = k, u
		}
	}
	return bestK, bestU
}

// BigSubOptions configures the BigSub baseline.
type BigSubOptions struct {
	// Iterations is the total iteration budget.
	Iterations int
	Rand       *rand.Rand
}

// BigSub runs the iterative bipartite-labeling baseline [20]. Its labeling
// iteration is operationally the same alternating Z/Y optimization as
// IterView; the distinguishing feature reproduced here is the freeze rule
// that forbids turning selected subqueries to unselected after a
// threshold — half the budget — which forces convergence at the price of
// greedy behaviour.
func BigSub(in *mvs.Instance, opts BigSubOptions) *mvs.IterResult {
	iters := opts.Iterations
	if iters <= 0 {
		iters = 100
	}
	return mvs.IterView(in, mvs.IterOptions{
		Iterations:  iters,
		FreezeAfter: iters / 2,
		Rand:        opts.Rand,
	})
}
