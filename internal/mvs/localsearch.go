package mvs

import (
	"math/rand"
	"sort"

	"autoview/internal/nn"
	"autoview/internal/obs"
)

// Local-search metrics: restarts started, hill-climbing moves accepted,
// and neighbor utilities evaluated (the dominant cost — each evaluation
// re-solves the Y rows the move can affect).
var (
	obsLSRestarts = obs.Default.Counter("mvs.localsearch.restarts", "local-search restarts run")
	obsLSMoves    = obs.Default.Counter("mvs.localsearch.moves", "accepted hill-climbing moves")
	obsLSEvals    = obs.Default.Counter("mvs.localsearch.evals", "neighbor utility evaluations")
)

// LocalSearchOptions configures LocalSearch.
type LocalSearchOptions struct {
	// Budget caps the total materialization overhead Σ_j z_j·O_j of the
	// selection (the storage budget of the local-search literature).
	// Zero or negative means unbounded: the net-utility objective
	// already charges overheads, so the unbounded problem is the
	// paper's Definition 7.
	Budget float64
	// Restarts is the restart schedule length (default 4). Restart 0 is
	// greedy-seeded (net-benefit density order); later restarts start
	// from seeded random subsets.
	Restarts int
	// Rand seeds the restart initializations. Each restart's sub-seed
	// is drawn up front, so neighbor evaluation order and parallelism
	// never perturb the schedule. Defaults to a fixed seed-1 source.
	Rand *rand.Rand
	// Parallelism fans neighbor evaluation across workers
	// (nn.ParallelFor). The chosen move is the argmax reduced in move
	// order, so the selection is byte-identical for every setting.
	// 0 and 1 both run serially.
	Parallelism int
}

func (o LocalSearchOptions) withDefaults() LocalSearchOptions {
	if o.Restarts <= 0 {
		o.Restarts = 4
	}
	if o.Rand == nil {
		o.Rand = rand.New(rand.NewSource(1))
	}
	if o.Parallelism <= 0 {
		o.Parallelism = 1
	}
	return o
}

// LocalSearchResult is the outcome of a LocalSearch run.
type LocalSearchResult struct {
	// Best is the best assignment found across restarts; its Y rows are
	// Y-Opt-optimal for Best.Z.
	Best *State
	// BestUtility is Instance.Utility(Best), recomputed from the
	// instance's benefit accounting (never the incremental climb value).
	BestUtility float64
	// Trace records the incumbent utility after every accepted move
	// across restarts (restart boundaries reset the climb, not the
	// incumbent), for frontier plots.
	Trace []float64
	// BestRestart is the 0-based restart that produced Best.
	BestRestart int
	// Moves counts accepted moves; Evaluations counts neighbor
	// utility-delta evaluations.
	Moves, Evaluations int
}

// move is one neighborhood step: add j (drop<0), drop j (add<0), or the
// swap drop→add.
type move struct{ drop, add int }

// LocalSearch is a steepest-ascent hill climber over view subsets: the
// neighborhood of Z is every single add, single drop, and add/drop swap
// that respects the storage budget, and the climb takes the best
// improving neighbor until a local optimum. A short restart schedule
// (greedy-seeded first, seeded-random after) escapes poor basins —
// the "simple local search" that *Workload acceleration by optimizing
// materialized view selection using local search* argues beats learned
// selection at scale.
//
// Determinism: for a fixed Rand seed the result is byte-identical across
// every Parallelism setting — randomness only picks restart starting
// points, and the move argmax ties break toward the lowest move index.
func LocalSearch(in *Instance, opts LocalSearchOptions) *LocalSearchResult {
	defer obs.StartSpan("mvs.localsearch")()
	nv := in.NumViews()
	opts = opts.withDefaults()
	res := &LocalSearchResult{Best: NewState(in), BestUtility: 0, BestRestart: 0}
	if nv == 0 {
		return res
	}
	obsLSRestarts.Add(int64(opts.Restarts))

	// Sub-seeds for the whole schedule, drawn before any climbing so
	// evaluation order cannot perturb them.
	seeds := make([]int64, opts.Restarts)
	for r := range seeds {
		seeds[r] = opts.Rand.Int63()
	}

	bmax := in.maxBenefits()
	// queriesOf[j] lists the rows a flip of z_j can change.
	queriesOf := make([][]int, nv)
	for i, row := range in.Benefit {
		for j, b := range row {
			if b > 0 {
				queriesOf[j] = append(queriesOf[j], i)
			}
		}
	}

	c := &climber{in: in, opts: opts, queriesOf: queriesOf, bmax: bmax}
	for r := 0; r < opts.Restarts; r++ {
		var z []bool
		if r == 0 {
			z = c.greedySeed()
		} else {
			z = c.randomSeed(rand.New(rand.NewSource(seeds[r])))
		}
		st, u := c.climb(z, res)
		if res.Best == nil || u > res.BestUtility {
			res.Best = st
			res.BestUtility = u
			res.BestRestart = r
		}
	}
	res.Evaluations = c.evals
	obsLSMoves.Add(int64(res.Moves))
	obsLSEvals.Add(int64(c.evals))
	return res
}

// climber carries the per-run constants and scratch of the hill climb.
type climber struct {
	in        *Instance
	opts      LocalSearchOptions
	queriesOf [][]int
	bmax      []float64
	evals     int
}

// overhead returns Σ_j z_j·O_j.
func (c *climber) overhead(z []bool) float64 {
	var o float64
	for j, set := range z {
		if set {
			o += c.in.Overhead[j]
		}
	}
	return o
}

// fits reports whether a selection overhead respects the budget.
func (c *climber) fits(o float64) bool {
	return c.opts.Budget <= 0 || o <= c.opts.Budget+1e-9
}

// greedySeed selects views in decreasing net-benefit-ceiling order while
// they fit the budget and their ceiling clears their overhead.
func (c *climber) greedySeed() []bool {
	nv := c.in.NumViews()
	order := make([]int, nv)
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool {
		return c.bmax[order[a]]-c.in.Overhead[order[a]] > c.bmax[order[b]]-c.in.Overhead[order[b]]
	})
	z := make([]bool, nv)
	var ocur float64
	for _, j := range order {
		if c.bmax[j] <= c.in.Overhead[j] {
			continue
		}
		if !c.fits(ocur + c.in.Overhead[j]) {
			continue
		}
		z[j] = true
		ocur += c.in.Overhead[j]
	}
	return z
}

// randomSeed includes each view with probability ½ in a seeded
// permutation order, skipping views that would break the budget.
func (c *climber) randomSeed(rng *rand.Rand) []bool {
	nv := c.in.NumViews()
	z := make([]bool, nv)
	var ocur float64
	for _, j := range rng.Perm(nv) {
		if rng.Intn(2) == 0 {
			continue
		}
		if !c.fits(ocur + c.in.Overhead[j]) {
			continue
		}
		z[j] = true
		ocur += c.in.Overhead[j]
	}
	return z
}

// climb runs steepest-ascent from z until a local optimum or the move
// cap, returning the final state with Y-Opt rows and its exact utility.
func (c *climber) climb(z []bool, res *LocalSearchResult) (*State, float64) {
	in := c.in
	nv := in.NumViews()
	y, _ := in.BestY(z)
	st := &State{Z: z, Y: y}
	// rowBen[i] caches the current Y-Opt benefit of row i so move deltas
	// only re-solve affected rows.
	rowBen := make([]float64, in.NumQueries())
	for i, row := range st.Y {
		for j, used := range row {
			if used {
				rowBen[i] += in.Benefit[i][j]
			}
		}
	}
	ocur := c.overhead(z)

	// Per-worker scratch copies of Z for hypothetical evaluations
	// (sized by the parallelism cap: the move count varies per step).
	scratch := make([][]bool, c.opts.Parallelism)
	for w := range scratch {
		scratch[w] = make([]bool, nv)
	}

	// At most 4·|Z| accepted moves per restart; the climb also stops at
	// the first local optimum.
	for step := 0; step < 4*nv; step++ {
		moves := c.enumerate(st.Z, ocur)
		if len(moves) == 0 {
			break
		}
		deltas := make([]float64, len(moves))
		c.evals += len(moves)
		nn.ParallelForWorker(len(moves), c.opts.Parallelism, func(w, m int) {
			deltas[m] = c.delta(st, rowBen, scratch[w], moves[m])
		})
		best, bestDelta := -1, 1e-9
		for m, d := range deltas {
			if d > bestDelta {
				best, bestDelta = m, d
			}
		}
		if best < 0 {
			break
		}
		ocur = c.apply(st, rowBen, ocur, moves[best])
		res.Moves++
		res.Trace = append(res.Trace, in.Utility(st))
	}
	// Re-solve Y exactly for the final Z and report the recomputed
	// utility: callers compare it bit-identically against
	// Instance.Utility.
	st.Y, _ = in.BestY(st.Z)
	return st, in.Utility(st)
}

// enumerate lists the budget-respecting neighborhood of z in a fixed
// order: adds (ascending j), drops (ascending j), swaps (drop-major).
func (c *climber) enumerate(z []bool, ocur float64) []move {
	nv := len(z)
	var sel, unsel []int
	for j := 0; j < nv; j++ {
		if z[j] {
			sel = append(sel, j)
		} else if len(c.queriesOf[j]) > 0 {
			// A view no query benefits from can never improve utility.
			unsel = append(unsel, j)
		}
	}
	moves := make([]move, 0, len(unsel)+len(sel)+len(sel)*len(unsel))
	for _, k := range unsel {
		if c.fits(ocur + c.in.Overhead[k]) {
			moves = append(moves, move{drop: -1, add: k})
		}
	}
	for _, j := range sel {
		moves = append(moves, move{drop: j, add: -1})
	}
	for _, j := range sel {
		for _, k := range unsel {
			if c.fits(ocur - c.in.Overhead[j] + c.in.Overhead[k]) {
				moves = append(moves, move{drop: j, add: k})
			}
		}
	}
	return moves
}

// delta evaluates a move's utility change without mutating the state:
// only rows served by the flipped views can change, and each is
// re-solved by the exact Y-Opt row solver on the hypothetical Z.
func (c *climber) delta(st *State, rowBen []float64, zScratch []bool, mv move) float64 {
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
	for _, i := range c.affected(mv) {
		row := in.bestYRow(i, zScratch)
		var nb float64
		for j, used := range row {
			if used {
				nb += in.Benefit[i][j]
			}
		}
		d += nb - rowBen[i]
	}
	return d
}

// affected returns the rows a move can change, ascending and
// duplicate-free.
func (c *climber) affected(mv move) []int {
	if mv.drop < 0 {
		return c.queriesOf[mv.add]
	}
	if mv.add < 0 {
		return c.queriesOf[mv.drop]
	}
	a, b := c.queriesOf[mv.drop], c.queriesOf[mv.add]
	out := make([]int, 0, len(a)+len(b))
	ia, ib := 0, 0
	for ia < len(a) && ib < len(b) {
		switch {
		case a[ia] < b[ib]:
			out = append(out, a[ia])
			ia++
		case a[ia] > b[ib]:
			out = append(out, b[ib])
			ib++
		default:
			out = append(out, a[ia])
			ia++
			ib++
		}
	}
	out = append(out, a[ia:]...)
	return append(out, b[ib:]...)
}

// apply commits a move, re-solving the affected Y rows in place, and
// returns the updated overhead.
func (c *climber) apply(st *State, rowBen []float64, ocur float64, mv move) float64 {
	in := c.in
	if mv.drop >= 0 {
		st.Z[mv.drop] = false
		ocur -= in.Overhead[mv.drop]
	}
	if mv.add >= 0 {
		st.Z[mv.add] = true
		ocur += in.Overhead[mv.add]
	}
	for _, i := range c.affected(mv) {
		st.Y[i] = in.bestYRow(i, st.Z)
		rowBen[i] = 0
		for j, used := range st.Y[i] {
			if used {
				rowBen[i] += in.Benefit[i][j]
			}
		}
	}
	return ocur
}

// SelectedViews returns the ascending indices of the selected views of
// an assignment — the candidate axis is fingerprint-ordered by the
// pre-process stage, so this is the selection in fingerprint order.
func SelectedViews(z []bool) []int {
	var out []int
	for j, set := range z {
		if set {
			out = append(out, j)
		}
	}
	return out
}

// SelectionOverhead returns Σ_j z_j·O_j, the storage budget consumption
// of a selection.
func (in *Instance) SelectionOverhead(z []bool) float64 {
	var o float64
	for j, set := range z {
		if set {
			o += in.Overhead[j]
		}
	}
	return o
}
