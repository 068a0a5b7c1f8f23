package mvs

import "math/rand"

// oracleDelta is the per-move evaluation LocalSearch ran before its
// climb cached single-flip rows: copy Z, apply the move, and re-solve
// every affected row with bestYRow. It returns the delta and the rows
// it solved.
func oracleDelta(c *climber, st *State, rowBen []float64, zScratch []bool, mv move) (float64, int) {
	in := c.in
	copy(zScratch, st.Z)
	var d float64
	if mv.drop >= 0 {
		zScratch[mv.drop] = false
		d += in.Overhead[mv.drop]
	}
	if mv.add >= 0 {
		zScratch[mv.add] = true
		d -= in.Overhead[mv.add]
	}
	rows := c.affected(mv)
	for _, i := range rows {
		row := in.bestYRow(i, zScratch)
		var nb float64
		for j, used := range row {
			if used {
				nb += in.Benefit[i][j]
			}
		}
		d += nb - rowBen[i]
	}
	return d, len(rows)
}

// localSearchOracle is LocalSearch with oracleDelta choosing every
// move: the same restart schedule, seeding, neighborhood order, argmax
// and apply. Before each move is chosen, step receives the current Z,
// the delta vector the production climber computes for the same
// neighborhood, and the oracle's. It returns the result and the row
// solves the per-move evaluation and the applied moves ran.
func localSearchOracle(in *Instance, opts LocalSearchOptions, step func(z []bool, fast, oracle []float64)) (*LocalSearchResult, int) {
	nv := in.NumViews()
	opts = opts.withDefaults()
	res := &LocalSearchResult{Best: NewState(in)}
	if nv == 0 {
		return res, 0
	}
	seeds := make([]int64, opts.Restarts)
	for r := range seeds {
		seeds[r] = opts.Rand.Int63()
	}
	c := newClimber(in)
	zScratch := make([]bool, nv)
	solves := 0
	for r := 0; r < opts.Restarts; r++ {
		var z []bool
		if r == 0 {
			z = c.greedySeed()
		} else {
			z = c.randomSeed(rand.New(rand.NewSource(seeds[r])))
		}
		y, _ := in.BestY(z)
		st := &State{Z: z, Y: y}
		rowBen := c.rowBenefits(st)
		for s := 0; s < 4*nv; s++ {
			moves := c.enumerate(st.Z)
			if len(moves) == 0 {
				break
			}
			res.Evaluations += len(moves)
			oracle := make([]float64, len(moves))
			for m, mv := range moves {
				d, n := oracleDelta(c, st, rowBen, zScratch, mv)
				oracle[m] = d
				solves += n
			}
			step(st.Z, c.deltas(st.Z, rowBen, moves), oracle)
			best, bestDelta := -1, 1e-9
			for m, d := range oracle {
				if d > bestDelta {
					best, bestDelta = m, d
				}
			}
			if best < 0 {
				break
			}
			solves += len(c.affected(moves[best]))
			c.apply(st, rowBen, moves[best])
			res.Moves++
			res.Trace = append(res.Trace, in.Utility(st))
		}
		st.Y, _ = in.BestY(st.Z)
		if u := in.Utility(st); u > res.BestUtility {
			res.Best, res.BestUtility, res.BestRestart = st, u, r
		}
	}
	return res, solves
}
