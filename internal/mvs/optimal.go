package mvs

import "sort"

// OptResult is the outcome of the exact search.
type OptResult struct {
	State   *State
	Utility float64
	// Optimal is false when the node budget was exhausted; the result is
	// then the best incumbent (matching how the paper reports OPT only
	// where the solver finishes).
	Optimal bool
	Nodes   int
}

// branchAndBound computes the exact MVS optimum by branch and bound over
// Z. OptimalExact runs it once per overlap component; in-package tests
// call it on whole instances as the undecomposed reference. For every
// partial assignment the bound is
//
//	Σ_q MWIS_q(selected ∪ undecided) − Σ_{j selected} O_j,
//
// which is admissible because widening the allowed view set can only raise
// a query's best benefit and undecided views contribute no overhead yet.
// The per-query terms are maintained incrementally: excluding view j can
// only affect queries that j serves, so only those rows are re-solved at
// each branching step.
//
// nodeBudget caps the search (0 means 2 million nodes).
func branchAndBound(in *Instance, nodeBudget int) *OptResult {
	if nodeBudget <= 0 {
		nodeBudget = 2_000_000
	}
	nv := in.NumViews()
	nq := in.NumQueries()
	bmax := in.maxBenefits()

	// Branch order: views with the highest benefit-minus-overhead
	// potential first.
	order := make([]int, nv)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa := bmax[order[a]] - in.Overhead[order[a]]
		sb := bmax[order[b]] - in.Overhead[order[b]]
		return sa > sb
	})

	// queriesOf[j] lists the queries view j can serve.
	queriesOf := make([][]int, nv)
	for i, row := range in.Benefit {
		for j, b := range row {
			if b > 0 {
				queriesOf[j] = append(queriesOf[j], i)
			}
		}
	}

	const (
		undecided = int8(iota)
		in1
		out
	)
	status := make([]int8, nv)
	allowed := func(j int) bool { return status[j] != out }

	// Incremental bound state. Bound 1 is the per-query MWIS relaxation;
	// bound 2 is the per-view net ceiling Σ_{in} bmax_j + Σ_{undecided}
	// max(0, bmax_j − O_j) − overhead(in). Both are admissible; the
	// minimum prunes.
	rowBound := make([]float64, nq)
	var totalBound float64
	for i := 0; i < nq; i++ {
		rowBound[i] = bestRowBenefit(in, i, allowed)
		totalBound += rowBound[i]
	}
	netCeil := make([]float64, nv)
	var sumIn, sumUndecided float64
	for j := 0; j < nv; j++ {
		netCeil[j] = bmax[j] - in.Overhead[j]
		if netCeil[j] < 0 {
			netCeil[j] = 0
		}
		sumUndecided += netCeil[j]
	}

	res := &OptResult{Utility: 0, State: NewState(in)} // empty Z is feasible with utility 0
	nodes := 0

	// exclude sets status[j]=out, updating affected row bounds; the
	// returned closure undoes it.
	exclude := func(j int) func() {
		status[j] = out
		affected := queriesOf[j]
		old := make([]float64, len(affected))
		for k, i := range affected {
			old[k] = rowBound[i]
			nb := bestRowBenefit(in, i, allowed)
			totalBound += nb - rowBound[i]
			rowBound[i] = nb
		}
		return func() {
			for k, i := range affected {
				totalBound += old[k] - rowBound[i]
				rowBound[i] = old[k]
			}
			status[j] = undecided
		}
	}

	var rec func(k int, overheadSoFar float64) bool
	rec = func(k int, overheadSoFar float64) bool {
		nodes++
		if nodes > nodeBudget {
			return false
		}
		bound := totalBound - overheadSoFar
		if b2 := sumIn + sumUndecided - overheadSoFar; b2 < bound {
			bound = b2
		}
		if bound <= res.Utility+1e-12 {
			return true
		}
		if k == nv {
			z := make([]bool, nv)
			for j := range z {
				z[j] = status[j] == in1
			}
			y, _ := in.BestY(z)
			st := &State{Z: z, Y: y}
			if u := in.Utility(st); u > res.Utility {
				res.Utility = u
				res.State = st
			}
			return true
		}
		j := order[k]
		// Include first (potential-ordered); bound 1 is unchanged.
		status[j] = in1
		sumIn += bmax[j]
		sumUndecided -= netCeil[j]
		ok := rec(k+1, overheadSoFar+in.Overhead[j])
		sumIn -= bmax[j]
		sumUndecided += netCeil[j]
		status[j] = undecided
		if !ok {
			return false
		}
		undo := exclude(j)
		sumUndecided -= netCeil[j]
		ok = rec(k+1, overheadSoFar)
		sumUndecided += netCeil[j]
		undo()
		return ok
	}
	res.Optimal = rec(0, 0)
	res.Nodes = nodes
	return res
}

// bestRowBenefit solves the per-query MWIS over the allowed views.
func bestRowBenefit(in *Instance, i int, allowed func(int) bool) float64 {
	var idx []int
	for j, b := range in.Benefit[i] {
		if b > 0 && allowed(j) {
			idx = append(idx, j)
		}
	}
	if len(idx) == 0 {
		return 0
	}
	if len(idx) == 1 {
		return in.Benefit[i][idx[0]]
	}
	// Exact search on the (small) per-query conflict subgraph with an
	// additive pruning bound.
	var best float64
	var rec func(pos int, cur float64, chosen []int)
	rec = func(pos int, cur float64, chosen []int) {
		if cur > best {
			best = cur
		}
		if pos == len(idx) {
			return
		}
		rest := cur
		for p := pos; p < len(idx); p++ {
			rest += in.Benefit[i][idx[p]]
		}
		if rest <= best {
			return
		}
		j := idx[pos]
		conflict := false
		for _, c := range chosen {
			if in.Overlap[j][c] {
				conflict = true
				break
			}
		}
		if !conflict {
			rec(pos+1, cur+in.Benefit[i][j], append(chosen, j))
		}
		rec(pos+1, cur, chosen)
	}
	rec(0, 0, nil)
	return best
}
