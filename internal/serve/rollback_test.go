package serve

import (
	"fmt"
	"testing"

	"autoview/internal/core"
	"autoview/internal/mvs"
	"autoview/internal/plan"
	"autoview/internal/rewrite"
)

// guardProblem is a hand-built cycle problem: one candidate per column
// of benefit (fingerprints v0, v1, …), no two overlapping, every cost
// multiplied by k.
func guardProblem(k float64, benefit [][]float64, overhead []float64) *core.Problem {
	p := &core.Problem{Instance: &mvs.Instance{}}
	for _, row := range benefit {
		scaled := make([]float64, len(row))
		for j, b := range row {
			scaled[j] = k * b
		}
		p.Instance.Benefit = append(p.Instance.Benefit, scaled)
	}
	for j, o := range overhead {
		p.Instance.Overhead = append(p.Instance.Overhead, k*o)
		p.Instance.Overlap = append(p.Instance.Overlap, make([]bool, len(overhead)))
		p.Candidates = append(p.Candidates, &core.Candidate{
			View:     &rewrite.View{Fingerprint: plan.Fingerprint(fmt.Sprintf("v%d", j))},
			Overhead: k * o,
		})
	}
	return p
}

// fourViews is a problem whose selections all have distinct utilities.
// Views v0 and v1 overlap, so a query they both serve counts one.
func fourViews(k float64) *core.Problem {
	p := guardProblem(k, [][]float64{
		{4, 3, 0, 0},
		{2, 0, 1.5, 0},
		{0, 5, 0, 0.25},
		{0, 0, 3, 2},
	}, []float64{2, 1.5, 1, 0.75})
	p.Instance.Overlap[0][1], p.Instance.Overlap[1][0] = true, true
	return p
}

// activeSet is the view set a cycle over p installed for selection z,
// with the utility its selector reported there.
func activeSet(p *core.Problem, z []bool) *ViewSet {
	vs := &ViewSet{Utility: p.Instance.UtilityOfZ(z)}
	for j, on := range z {
		if on {
			c := p.Candidates[j]
			vs.Views = append(vs.Views, ViewInfo{Fingerprint: string(c.View.Fingerprint), Overhead: c.Overhead})
		}
	}
	return vs
}

// selections enumerates every Z over n candidates.
func selections(n int) [][]bool {
	var out [][]bool
	for mask := 0; mask < 1<<n; mask++ {
		z := make([]bool, n)
		for j := range z {
			z[j] = mask&(1<<j) != 0
		}
		out = append(out, z)
	}
	return out
}

// TestRollbackGuardScaledWindowKeepsIdenticalSet (a): a window whose
// benefits and overheads all halve selects the same set again, and the
// guard never rolls it back, although the candidate's utility is half
// what the active set recorded at its own cycle: compared with that
// recorded figure, every set worth anything would roll back.
func TestRollbackGuardScaledWindowKeepsIdenticalSet(t *testing.T) {
	before, now := fourViews(1), fourViews(0.5)
	recordedRollbacks := 0
	for _, z := range selections(4) {
		active := activeSet(before, z)
		cand, cur, regressed := sameProblem(now, z, active, 0)
		if regressed || cand != cur {
			t.Errorf("Z=%v: candidate %v vs active %v on the halved window, rolled back %v; want equal and kept", z, cand, cur, regressed)
		}
		if cand < active.Utility {
			recordedRollbacks++
		}
	}
	if recordedRollbacks == 0 {
		t.Fatal("no selection would have regressed against its recorded utility: the scaled window tests nothing")
	}
}

// TestRollbackGuardRejectsWorseSet (b): on one window, every candidate
// whose utility is strictly below the active set's is rolled back and
// every other one installed. A view the window no longer offers as a
// candidate still costs its overhead and earns nothing.
func TestRollbackGuardRejectsWorseSet(t *testing.T) {
	p := fourViews(1)
	pairs := 0
	for _, zActive := range selections(4) {
		active := activeSet(p, zActive)
		for _, z := range selections(4) {
			cand, cur, regressed := sameProblem(p, z, active, 0)
			if cur != active.Utility {
				t.Fatalf("active Z=%v scores %v on its own window, recorded %v", zActive, cur, active.Utility)
			}
			if regressed != (cand < cur) {
				t.Errorf("active Z=%v (%v), candidate Z=%v (%v): rolled back %v", zActive, cur, z, cand, regressed)
			}
			if cand < cur {
				pairs++
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no strictly worse candidate was tried")
	}

	gone := &ViewSet{Views: []ViewInfo{{Fingerprint: "v3", Overhead: 0.75}, {Fingerprint: "retired", Overhead: 0.5}}}
	_, cur, _ := sameProblem(p, make([]bool, 4), gone, 0)
	if want := p.Instance.UtilityOfZ([]bool{false, false, false, true}) - 0.5; cur != want {
		t.Fatalf("active set with a retired view scores %v, want %v (v3's utility less the retired view's overhead)", cur, want)
	}
}

// TestRollbackGuardTolerance (c): -utility-tolerance 0.1 installs a
// candidate 5 % below the active set on the same window and rolls back
// one 15 % below; tolerance 0 rolls back any regression.
func TestRollbackGuardTolerance(t *testing.T) {
	// Three independent views worth 10, 9.5 and 8.5.
	p := guardProblem(1, [][]float64{{10, 0, 0}, {0, 9.5, 0}, {0, 0, 8.5}}, []float64{0, 0, 0})
	active := activeSet(p, []bool{true, false, false})
	for _, tc := range []struct {
		name     string
		z        []bool
		tol      float64
		rollback bool
	}{
		{"5% below, tolerance 0.1", []bool{false, true, false}, 0.1, false},
		{"15% below, tolerance 0.1", []bool{false, false, true}, 0.1, true},
		{"5% below, tolerance 0", []bool{false, true, false}, 0, true},
		{"equal, tolerance 0", []bool{true, false, false}, 0, false},
	} {
		cand, cur, regressed := sameProblem(p, tc.z, active, tc.tol)
		if regressed != tc.rollback {
			t.Errorf("%s: candidate %v vs active %v rolled back %v, want %v", tc.name, cand, cur, regressed, tc.rollback)
		}
	}
}
