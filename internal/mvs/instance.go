// Package mvs models the Materialized View Selection problem (Definition
// 7) as the paper's 0-1 ILP and implements its iterative optimizer
// IterView with the Z-Opt / Y-Opt subroutines and the flipping
// probabilities of Equation 3. The exact optimum (the experiments' OPT
// column) is OptimalExact: dominance, then branch and bound over Z per
// overlap component, with per-query independent-set subproblems for Y.
package mvs

import (
	"fmt"

	"autoview/internal/obs"
)

// Y-Opt solver metric: every full BestY solve (one per Z-Opt iteration or
// RL warm start) counts here; RecomputeYForView's incremental updates are
// counted separately because the RL environment calls it every step.
var (
	obsYOptCount     = obs.Default.Counter("mvs.yopt.count", "full Y-Opt ILP solves (BestY calls)")
	obsYOptIncCount  = obs.Default.Counter("mvs.yopt.incremental", "incremental Y-Opt updates (RecomputeYForView calls)")
	obsIterViewIters = obs.Default.Counter("mvs.iterview.iterations", "IterView Z-Opt/Y-Opt iterations run")
)

// Instance holds the ILP constants of one MVS problem:
//
//	max Σ_ij y_ij·B_ij − Σ_j z_j·O_j
//	s.t. y_ij + Σ_{k≠j} x_jk·y_ik ≤ 1,  y_ij ≤ z_j
type Instance struct {
	// Benefit[i][j] is B(q_i, v_j) in dollars; non-positive entries mean
	// the view is useless (or inapplicable) for the query.
	Benefit [][]float64
	// Overhead[j] is O_vj in dollars.
	Overhead []float64
	// Overlap[j][k] is the constant x_jk: views j and k are overlapping
	// subqueries and cannot both serve one query.
	Overlap [][]bool
}

// Validate checks dimensional consistency.
func (in *Instance) Validate() error {
	nv := len(in.Overhead)
	if len(in.Overlap) != nv {
		return fmt.Errorf("mvs: overlap matrix is %d×?, want %d", len(in.Overlap), nv)
	}
	for j, row := range in.Overlap {
		if len(row) != nv {
			return fmt.Errorf("mvs: overlap row %d has %d entries, want %d", j, len(row), nv)
		}
		if row[j] {
			return fmt.Errorf("mvs: overlap diagonal %d must be false", j)
		}
		for k := range row {
			if row[k] != in.Overlap[k][j] {
				return fmt.Errorf("mvs: overlap not symmetric at %d,%d", j, k)
			}
		}
	}
	for i, row := range in.Benefit {
		if len(row) != nv {
			return fmt.Errorf("mvs: benefit row %d has %d entries, want %d", i, len(row), nv)
		}
	}
	return nil
}

// NumQueries returns |Q|.
func (in *Instance) NumQueries() int { return len(in.Benefit) }

// NumViews returns |Z|.
func (in *Instance) NumViews() int { return len(in.Overhead) }

// State is one assignment ⟨Z, Y⟩ of the ILP's variables.
type State struct {
	Z []bool
	Y [][]bool
}

// NewState allocates an all-zero assignment for the instance.
func NewState(in *Instance) *State {
	s := &State{Z: make([]bool, in.NumViews()), Y: make([][]bool, in.NumQueries())}
	for i := range s.Y {
		s.Y[i] = make([]bool, in.NumViews())
	}
	return s
}

// Clone deep-copies the state.
func (s *State) Clone() *State {
	c := &State{Z: append([]bool(nil), s.Z...), Y: make([][]bool, len(s.Y))}
	for i, row := range s.Y {
		c.Y[i] = append([]bool(nil), row...)
	}
	return c
}

// Utility computes U = Σ y_ij·B_ij − Σ z_j·O_j for the state (Definition 6).
func (in *Instance) Utility(s *State) float64 {
	var u float64
	for i, row := range s.Y {
		for j, used := range row {
			if used {
				u += in.Benefit[i][j]
			}
		}
	}
	for j, z := range s.Z {
		if z {
			u -= in.Overhead[j]
		}
	}
	return u
}

// Feasible reports whether the state satisfies both constraint families.
func (in *Instance) Feasible(s *State) bool {
	for i, row := range s.Y {
		for j, used := range row {
			if !used {
				continue
			}
			if !s.Z[j] {
				return false
			}
			for k, other := range row {
				if k != j && other && in.Overlap[j][k] {
					return false
				}
			}
			_ = i
		}
	}
	return true
}

// BestY solves Y optimally for a fixed Z: per query, a maximum-weight
// independent set over the views that are materialized, beneficial, and
// pairwise non-overlapping (the paper's Y-Opt local ILP). It returns the
// per-view current benefit array Bcur as well.
func (in *Instance) BestY(z []bool) ([][]bool, []float64) {
	obsYOptCount.Inc()
	nq, nv := in.NumQueries(), in.NumViews()
	y := make([][]bool, nq)
	bcur := make([]float64, nv)
	for i := 0; i < nq; i++ {
		y[i] = in.bestYRow(i, z)
		for j, used := range y[i] {
			if used {
				bcur[j] += in.Benefit[i][j]
			}
		}
	}
	return y, bcur
}

// bestYRow solves the per-query subproblem exactly.
func (in *Instance) bestYRow(i int, z []bool) []bool {
	nv := in.NumViews()
	// Gather applicable views.
	var idx []int
	for j := 0; j < nv; j++ {
		if z[j] && in.Benefit[i][j] > 0 {
			idx = append(idx, j)
		}
	}
	row := make([]bool, nv)
	for a, s := range in.rowMWIS(i, idx) {
		if s {
			row[idx[a]] = true
		}
	}
	return row
}

// rowMWIS solves query i's independent-set subproblem over idx, its
// ascending materialized positive-benefit views, and returns the chosen
// subset as a mask over idx.
func (in *Instance) rowMWIS(i int, idx []int) []bool {
	if len(idx) == 0 {
		return nil
	}
	w := make([]float64, len(idx))
	conflict := make([][]bool, len(idx))
	for a, j := range idx {
		w[a] = in.Benefit[i][j]
		conflict[a] = make([]bool, len(idx))
		for b, k := range idx {
			conflict[a][b] = in.Overlap[j][k]
		}
	}
	sel, _ := maxWeightIndependentSet(w, conflict)
	return sel
}

// rowValue returns the benefit of query i's Y-Opt row under z — the
// Σ B_ij over the row bestYRow selects, summed in ascending j, so the
// two agree bit for bit. views must be the query's ascending
// positive-benefit views and sel scratch of at least their length. A
// conflict-free applicable set is its own maximum-weight independent set
// (every weight is positive), so that common case sums the set without
// allocating; only a row with an overlapping pair runs the solver.
func (in *Instance) rowValue(i int, z []bool, views, sel []int) float64 {
	sel = sel[:0]
	for _, j := range views {
		if z[j] {
			sel = append(sel, j)
		}
	}
	ben := in.Benefit[i]
	for a, j := range sel {
		for _, k := range sel[a+1:] {
			if in.Overlap[j][k] {
				var v float64
				for b, s := range in.rowMWIS(i, sel) {
					if s {
						v += ben[sel[b]]
					}
				}
				return v
			}
		}
	}
	var v float64
	for _, j := range sel {
		v += ben[j]
	}
	return v
}

// RecomputeYForView re-solves the Y rows of every query that view j can
// serve, updating st.Y and bcur in place. After flipping z_j only those
// rows can change (other queries' available view sets are untouched), so
// this is the incremental form of BestY used by the RL environment.
func (in *Instance) RecomputeYForView(st *State, bcur []float64, j int) {
	obsYOptIncCount.Inc()
	for i, row := range in.Benefit {
		if row[j] <= 0 {
			continue
		}
		old := st.Y[i]
		for k, used := range old {
			if used {
				bcur[k] -= in.Benefit[i][k]
			}
		}
		st.Y[i] = in.bestYRow(i, st.Z)
		for k, used := range st.Y[i] {
			if used {
				bcur[k] += in.Benefit[i][k]
			}
		}
	}
}

// MaxBenefits exposes Bmax[j] = Σ_i max(B_ij, 0), the per-view benefit
// ceiling used by Z-Opt's probabilities and the RL state features.
func (in *Instance) MaxBenefits() []float64 { return in.maxBenefits() }

// UtilityOfZ evaluates the best achievable utility for a fixed Z.
func (in *Instance) UtilityOfZ(z []bool) float64 {
	y, _ := in.BestY(z)
	var u float64
	for i, row := range y {
		for j, used := range row {
			if used {
				u += in.Benefit[i][j]
			}
		}
	}
	for j, set := range z {
		if set {
			u -= in.Overhead[j]
		}
	}
	return u
}

// TotalQueryBenefitUpperBound returns Σ_j Bmax[j], the additive benefit
// ceiling used by Z-Opt's probabilities.
func (in *Instance) maxBenefits() []float64 {
	nv := in.NumViews()
	bmax := make([]float64, nv)
	for _, row := range in.Benefit {
		for j, b := range row {
			if b > 0 {
				bmax[j] += b
			}
		}
	}
	return bmax
}
