package core

import (
	"strings"
	"testing"

	"autoview/internal/equiv"
	"autoview/internal/mvs"
)

func TestParseSelectorRegistry(t *testing.T) {
	for name, want := range SelectorNames() {
		got, err := ParseSelector(name)
		if err != nil {
			t.Errorf("ParseSelector(%q): %v", name, err)
			continue
		}
		if got != want {
			t.Errorf("ParseSelector(%q) = %v, want %v", name, got, want)
		}
		// Case-insensitive, as the CLIs document.
		if up, err := ParseSelector(strings.ToUpper(name)); err != nil || up != want {
			t.Errorf("ParseSelector(%q) = %v, %v", strings.ToUpper(name), up, err)
		}
		if want.String() == "?" {
			t.Errorf("selector %q has no String name", name)
		}
	}
	for _, bad := range []string{"", "greedy", "rlview ", "local-search"} {
		if _, err := ParseSelector(bad); err == nil {
			t.Errorf("ParseSelector(%q) should fail", bad)
		}
	}
}

func TestParseEstimator(t *testing.T) {
	cases := map[string]EstimatorKind{
		"actual": EstimatorActual, "optimizer": EstimatorOptimizer,
		"wd": EstimatorWideDeep, "w-d": EstimatorWideDeep, "widedeep": EstimatorWideDeep,
		"Actual": EstimatorActual, "WD": EstimatorWideDeep,
	}
	for name, want := range cases {
		got, err := ParseEstimator(name)
		if err != nil || got != want {
			t.Errorf("ParseEstimator(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, bad := range []string{"", "oracle", "deep"} {
		if _, err := ParseEstimator(bad); err == nil {
			t.Errorf("ParseEstimator(%q) should fail", bad)
		}
	}
}

// registryProblem builds a minimal synthetic Problem that selectViews can
// run every registered selector against without the full pipeline.
func registryProblem() *Problem {
	in := &mvs.Instance{
		Benefit:  [][]float64{{3, 0, 1}, {0, 2, 2}, {1, 1, 0}},
		Overhead: []float64{0.5, 0.5, 0.5},
		Overlap: [][]bool{
			{false, true, false},
			{true, false, false},
			{false, false, false},
		},
	}
	p := &Problem{Instance: in, AssocQueries: []int{0, 1, 2}}
	for j := 0; j < in.NumViews(); j++ {
		p.Candidates = append(p.Candidates, &Candidate{
			Candidate: &equiv.Candidate{Frequency: j + 1},
		})
	}
	return p
}

// TestSelectViewsEveryRegisteredSelector runs Advisor.selectViews once per
// registered selector name: each must succeed, report its method name,
// and return a feasible-shaped selection with utility matching core
// accounting; the unregistered kind must error.
func TestSelectViewsEveryRegisteredSelector(t *testing.T) {
	for name, kind := range SelectorNames() {
		kind := kind
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Selector = kind
			// Keep the DQN arm fast: tiny training budgets.
			cfg.RL.InitIterations = 2
			cfg.RL.Epochs = 2
			cfg.RL.MemoryThreshold = 4
			a := &Advisor{Cfg: cfg}
			p := registryProblem()
			sel, err := a.selectViews(p)
			if err != nil {
				t.Fatalf("selectViews: %v", err)
			}
			if sel.Method == "" || sel.Method == "?" {
				t.Errorf("method name %q", sel.Method)
			}
			if len(sel.Z) != p.Instance.NumViews() {
				t.Fatalf("selection over %d views, want %d", len(sel.Z), p.Instance.NumViews())
			}
			if u := p.Instance.UtilityOfZ(sel.Z); u != sel.Utility {
				t.Errorf("reported utility %v != core accounting %v", sel.Utility, u)
			}
			if (sel.Replay != nil) != (kind == SelectorRLView) {
				t.Errorf("Replay has %d experiences; only RLView hands over a pool", len(sel.Replay))
			}
		})
	}
	a := &Advisor{Cfg: Config{Selector: SelectorKind(99)}}
	if _, err := a.selectViews(registryProblem()); err == nil {
		t.Errorf("unregistered selector kind should error")
	} else if !strings.Contains(err.Error(), "unknown selector") {
		t.Errorf("unexpected error: %v", err)
	}
}
