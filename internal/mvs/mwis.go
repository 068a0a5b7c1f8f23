package mvs

import "sort"

// maxWeightIndependentSet solves max Σ w_i x_i subject to x_i + x_j ≤ 1
// for every conflicting pair, exactly — the paper's per-query Y-Opt in
// its natural form (Section V-A), standing in for the PuLP/Gurobi call.
// Vertices with non-positive weight are never selected. conflict must be
// symmetric.
func maxWeightIndependentSet(weights []float64, conflict [][]bool) ([]bool, float64) {
	n := len(weights)
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if weights[i] > 0 {
			order = append(order, i)
		}
	}
	// Heaviest first: good incumbents early.
	sort.Slice(order, func(a, b int) bool { return weights[order[a]] > weights[order[b]] })

	suffix := make([]float64, len(order)+1)
	for k := len(order) - 1; k >= 0; k-- {
		suffix[k] = suffix[k+1] + weights[order[k]]
	}

	best := make([]bool, n)
	var bestVal float64
	cur := make([]bool, n)
	blocked := make([]int, n) // count of selected neighbors

	var rec func(k int, val float64)
	rec = func(k int, val float64) {
		if val > bestVal {
			bestVal = val
			copy(best, cur)
		}
		if k == len(order) || val+suffix[k] <= bestVal {
			return
		}
		v := order[k]
		if blocked[v] == 0 {
			cur[v] = true
			for u := 0; u < n; u++ {
				if conflict[v][u] {
					blocked[u]++
				}
			}
			rec(k+1, val+weights[v])
			cur[v] = false
			for u := 0; u < n; u++ {
				if conflict[v][u] {
					blocked[u]--
				}
			}
		}
		rec(k+1, val)
	}
	rec(0, 0)
	return best, bestVal
}
