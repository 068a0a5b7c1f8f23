package mvs

// OptimalExact computes the exact MVS optimum by decomposition:
//
//  1. Dominance: a view with Σ_q max(B_qj, 0) ≤ O_j can never contribute
//     positive net utility (the overlap constraints only restrict usage,
//     never force it), so it is fixed to z_j = 0.
//  2. Decomposition: utility is additive across connected components of
//     the overlap graph — two non-overlapping views never constrain each
//     other in any query, so per-query view choice (an independent-set
//     problem on a disjoint graph union) decomposes, and so do overheads.
//  3. Each component is solved exactly by branchAndBound on its
//     sub-instance.
//
// budgetPerComponent caps each component's search (0 = 2 million nodes);
// Optimal is false if any component exhausts its budget.
func OptimalExact(in *Instance, budgetPerComponent int) *OptResult {
	nv := in.NumViews()
	bmax := in.maxBenefits()

	alive := make([]bool, nv)
	for j := 0; j < nv; j++ {
		alive[j] = bmax[j] > in.Overhead[j]
	}

	// Connected components of the overlap graph over surviving views.
	comp := make([]int, nv)
	for j := range comp {
		comp[j] = -1
	}
	var components [][]int
	for j := 0; j < nv; j++ {
		if !alive[j] || comp[j] >= 0 {
			continue
		}
		id := len(components)
		stack := []int{j}
		comp[j] = id
		var members []int
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			members = append(members, v)
			for u := 0; u < nv; u++ {
				if alive[u] && comp[u] < 0 && in.Overlap[v][u] {
					comp[u] = id
					stack = append(stack, u)
				}
			}
		}
		components = append(components, members)
	}

	total := &OptResult{State: NewState(in), Optimal: true}
	for _, members := range components {
		sub, queries := Project(in, members)
		res := branchAndBound(sub, budgetPerComponent)
		total.Nodes += res.Nodes
		if !res.Optimal {
			total.Optimal = false
		}
		if res.Utility <= 0 {
			continue
		}
		total.Utility += res.Utility
		for a, j := range members {
			total.State.Z[j] = res.State.Z[a]
		}
		for b, qi := range queries {
			for a, j := range members {
				if res.State.Y[b][a] {
					total.State.Y[qi][j] = true
				}
			}
		}
	}
	return total
}

// Project returns the sub-instance induced by the given view indices
// plus the original indices of the queries it keeps (those that benefit
// from at least one member). members must be duplicate-free; the
// sub-instance's view axis follows members order. OptimalExact solves
// one projection per overlap component; the tournament harness races
// selectors at growing |Z| on projections of one measured instance.
func Project(in *Instance, members []int) (*Instance, []int) {
	var queries []int
	for i, row := range in.Benefit {
		for _, j := range members {
			if row[j] > 0 {
				queries = append(queries, i)
				break
			}
		}
	}
	sub := &Instance{
		Benefit:  make([][]float64, len(queries)),
		Overhead: make([]float64, len(members)),
		Overlap:  make([][]bool, len(members)),
	}
	for a, j := range members {
		sub.Overhead[a] = in.Overhead[j]
		sub.Overlap[a] = make([]bool, len(members))
		for b, k := range members {
			sub.Overlap[a][b] = in.Overlap[j][k]
		}
	}
	for b, qi := range queries {
		sub.Benefit[b] = make([]float64, len(members))
		for a, j := range members {
			sub.Benefit[b][a] = in.Benefit[qi][j]
		}
	}
	return sub, queries
}
