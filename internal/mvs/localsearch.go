package mvs

import (
	"math/rand"

	"autoview/internal/obs"
)

// Local-search metrics: restarts started, hill-climbing moves accepted,
// neighbor utilities evaluated, and the Y-Opt row solves those
// evaluations and the accepted moves actually ran (the dominant cost).
var (
	obsLSRestarts  = obs.Default.Counter("mvs.localsearch.restarts", "local-search restarts run")
	obsLSMoves     = obs.Default.Counter("mvs.localsearch.moves", "accepted hill-climbing moves")
	obsLSEvals     = obs.Default.Counter("mvs.localsearch.evals", "neighbor utility evaluations")
	obsLSRowSolves = obs.Default.Counter("mvs.localsearch.rowsolves", "Y-Opt row solves run by the local-search climb")
)

// LocalSearchOptions configures LocalSearch.
//
// The problem is the paper's Definition 7, with no storage budget: the
// net-utility objective already charges every view's overhead.
type LocalSearchOptions struct {
	// Restarts is the restart schedule length (default 4). Restart 0 is
	// greedy-seeded (every view whose benefit ceiling clears its
	// overhead); later restarts start from seeded random subsets.
	Restarts int
	// Rand seeds the restart initializations. Each restart's sub-seed
	// is drawn up front, so neighbor evaluation order never perturbs
	// the schedule. Defaults to a fixed seed-1 source.
	Rand *rand.Rand
}

func (o LocalSearchOptions) withDefaults() LocalSearchOptions {
	if o.Restarts <= 0 {
		o.Restarts = 4
	}
	if o.Rand == nil {
		o.Rand = rand.New(rand.NewSource(1))
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
// neighborhood of Z is every single add, single drop, and add/drop swap,
// and the climb takes the best
// improving neighbor until a local optimum. A short restart schedule
// (greedy-seeded first, seeded-random after) escapes poor basins —
// the "simple local search" that *Workload acceleration by optimizing
// materialized view selection using local search* argues beats learned
// selection at scale.
//
// Determinism: for a fixed Rand seed the result is byte-identical —
// randomness only picks restart starting points, and the move argmax
// ties break toward the lowest move index.
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

	c := newClimber(in)
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
	obsLSRowSolves.Add(int64(c.rowSolves))
	return res
}

// climber carries the per-run constants and scratch of the hill climb.
type climber struct {
	in   *Instance
	bmax []float64
	// queriesOf[j] lists, ascending, the rows a flip of z_j can change
	// (B_ij > 0); viewsOf[i] lists, ascending, row i's positive-benefit
	// views.
	queriesOf, viewsOf [][]int
	// flipVal[flipAt[j]+p] memoizes row queriesOf[j][p]'s Y-Opt benefit
	// with z_j flipped; it is current while flipGen at the same index
	// equals gen, which every climb step advances.
	flipAt  []int
	flipVal []float64
	flipGen []int
	gen     int
	sel     []int // rowValue scratch
	evals   int
	// rowSolves counts the Y-Opt row solves the climb ran.
	rowSolves int
}

func newClimber(in *Instance) *climber {
	nv := in.NumViews()
	c := &climber{
		in:        in,
		bmax:      in.maxBenefits(),
		queriesOf: make([][]int, nv),
		viewsOf:   make([][]int, in.NumQueries()),
		flipAt:    make([]int, nv+1),
	}
	widest := 0
	for i, row := range in.Benefit {
		for j, b := range row {
			if b > 0 {
				c.queriesOf[j] = append(c.queriesOf[j], i)
				c.viewsOf[i] = append(c.viewsOf[i], j)
			}
		}
		widest = max(widest, len(c.viewsOf[i]))
	}
	for j, rows := range c.queriesOf {
		c.flipAt[j+1] = c.flipAt[j] + len(rows)
	}
	c.flipVal = make([]float64, c.flipAt[nv])
	c.flipGen = make([]int, c.flipAt[nv])
	c.sel = make([]int, widest)
	return c
}

// greedySeed selects every view whose net-benefit ceiling Bmax_j clears
// its overhead.
func (c *climber) greedySeed() []bool {
	z := make([]bool, c.in.NumViews())
	for j := range z {
		z[j] = c.bmax[j] > c.in.Overhead[j]
	}
	return z
}

// randomSeed includes each view with probability ½, drawn in a seeded
// permutation order.
func (c *climber) randomSeed(rng *rand.Rand) []bool {
	nv := c.in.NumViews()
	z := make([]bool, nv)
	for _, j := range rng.Perm(nv) {
		z[j] = rng.Intn(2) != 0
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
	rowBen := c.rowBenefits(st)

	// At most 4·|Z| accepted moves per restart; the climb also stops at
	// the first local optimum.
	for step := 0; step < 4*nv; step++ {
		moves := c.enumerate(st.Z)
		if len(moves) == 0 {
			break
		}
		deltas := c.deltas(st.Z, rowBen, moves)
		best, bestDelta := -1, 1e-9
		for m, d := range deltas {
			if d > bestDelta {
				best, bestDelta = m, d
			}
		}
		if best < 0 {
			break
		}
		c.apply(st, rowBen, moves[best])
		res.Moves++
		res.Trace = append(res.Trace, in.Utility(st))
	}
	// Re-solve Y exactly for the final Z and report the recomputed
	// utility: callers compare it bit-identically against
	// Instance.Utility.
	st.Y, _ = in.BestY(st.Z)
	return st, in.Utility(st)
}

// rowBenefits returns each row's current Y-Opt benefit, summed in
// ascending j, so move deltas only re-solve affected rows.
func (c *climber) rowBenefits(st *State) []float64 {
	rowBen := make([]float64, len(st.Y))
	for i, row := range st.Y {
		for j, used := range row {
			if used {
				rowBen[i] += c.in.Benefit[i][j]
			}
		}
	}
	return rowBen
}

// enumerate lists the neighborhood of z in a fixed order: adds
// (ascending j), drops (ascending j), swaps (drop-major).
func (c *climber) enumerate(z []bool) []move {
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
		moves = append(moves, move{drop: -1, add: k})
	}
	for _, j := range sel {
		moves = append(moves, move{drop: j, add: -1})
	}
	for _, j := range sel {
		for _, k := range unsel {
			moves = append(moves, move{drop: j, add: k})
		}
	}
	return moves
}

// solve returns row i's Y-Opt benefit under z, counting the solve.
func (c *climber) solve(i int, z []bool) float64 {
	c.rowSolves++
	return c.in.rowValue(i, z, c.viewsOf[i], c.sel)
}

// deltas evaluates every move's utility change against z (restored
// before return). The rows a single flip of z_j changes are solved at
// most once per step and memoized: the add or drop of j reads them, and
// so does a swap drop j → add k on a row only j serves — k has no
// positive benefit there, so the row's candidate set is the one the
// flip of j alone leaves (likewise for k's own rows). A swap solves
// afresh only the rows both views serve. Each delta is accumulated as
// a per-move evaluation would: overheads first, then nb − rowBen[i]
// over the affected rows in ascending order.
func (c *climber) deltas(z []bool, rowBen []float64, moves []move) []float64 {
	c.evals += len(moves)
	c.gen++
	out := make([]float64, len(moves))
	for m, mv := range moves {
		var d float64
		switch {
		case mv.add < 0:
			d += c.in.Overhead[mv.drop]
			z[mv.drop] = false
			d = c.flipDelta(d, z, rowBen, mv.drop)
			z[mv.drop] = true
		case mv.drop < 0:
			d -= c.in.Overhead[mv.add]
			z[mv.add] = true
			d = c.flipDelta(d, z, rowBen, mv.add)
			z[mv.add] = false
		default:
			d += c.in.Overhead[mv.drop]
			d -= c.in.Overhead[mv.add]
			z[mv.drop], z[mv.add] = false, true
			d = c.swapDelta(d, z, rowBen, mv)
			z[mv.drop], z[mv.add] = true, false
		}
		out[m] = d
	}
	return out
}

// flipRow returns the memoized value of row queriesOf[j][p] with z_j
// flipped, solving it under z (which must leave that row's candidate
// set as the single flip does) when this step has not yet.
func (c *climber) flipRow(z []bool, j, p int) float64 {
	at := c.flipAt[j] + p
	if c.flipGen[at] != c.gen {
		c.flipVal[at] = c.solve(c.queriesOf[j][p], z)
		c.flipGen[at] = c.gen
	}
	return c.flipVal[at]
}

// flipDelta adds the row changes of the single flip of z_j, already
// applied to z, to d.
func (c *climber) flipDelta(d float64, z []bool, rowBen []float64, j int) float64 {
	for p, i := range c.queriesOf[j] {
		d += c.flipRow(z, j, p) - rowBen[i]
	}
	return d
}

// swapDelta adds the row changes of a swap, already applied to z, to d,
// merging the two views' row lists in ascending order.
func (c *climber) swapDelta(d float64, z []bool, rowBen []float64, mv move) float64 {
	a, b := c.queriesOf[mv.drop], c.queriesOf[mv.add]
	ia, ib := 0, 0
	for ia < len(a) || ib < len(b) {
		switch {
		case ib == len(b) || (ia < len(a) && a[ia] < b[ib]):
			d += c.flipRow(z, mv.drop, ia) - rowBen[a[ia]]
			ia++
		case ia == len(a) || b[ib] < a[ia]:
			d += c.flipRow(z, mv.add, ib) - rowBen[b[ib]]
			ib++
		default:
			d += c.solve(a[ia], z) - rowBen[a[ia]]
			ia++
			ib++
		}
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

// apply commits a move, re-solving the affected Y rows in place.
func (c *climber) apply(st *State, rowBen []float64, mv move) {
	in := c.in
	if mv.drop >= 0 {
		st.Z[mv.drop] = false
	}
	if mv.add >= 0 {
		st.Z[mv.add] = true
	}
	for _, i := range c.affected(mv) {
		c.rowSolves++
		st.Y[i] = in.bestYRow(i, st.Z)
		rowBen[i] = 0
		for j, used := range st.Y[i] {
			if used {
				rowBen[i] += in.Benefit[i][j]
			}
		}
	}
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

// SelectionOverhead returns Σ_j z_j·O_j, the total materialization
// overhead of a selection.
func (in *Instance) SelectionOverhead(z []bool) float64 {
	var o float64
	for j, set := range z {
		if set {
			o += in.Overhead[j]
		}
	}
	return o
}
