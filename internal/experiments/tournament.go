package experiments

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"autoview/internal/mvs"
	"autoview/internal/rl"
	"autoview/internal/selbase"
)

// TournamentSpec configures a selector tournament. The zero value (or an
// empty spec string) selects sensible defaults; ParseTournamentSpec fills
// one from a compact "key=value;key=value" string so the configuration is
// fuzzable and scriptable from the CLI.
type TournamentSpec struct {
	// Families restricts the raced workload families (JOB, WK1, WK2);
	// empty means all.
	Families []string
	// Sizes are the |Z| rungs raced per family; empty derives the ladder
	// 4, 8, 12, full-|Z| (clamped and deduplicated per instance).
	Sizes []int
	// Seed drives the per-rung candidate sampling and every stochastic
	// selector.
	Seed int64
}

// withDefaults returns a copy with unset fields resolved.
func (ts TournamentSpec) withDefaults() TournamentSpec {
	if ts.Seed == 0 {
		ts.Seed = 1
	}
	return ts
}

// String renders the spec in the exact syntax ParseTournamentSpec accepts
// (round-trip property; the fuzz target leans on it).
func (ts *TournamentSpec) String() string {
	var parts []string
	if len(ts.Families) > 0 {
		parts = append(parts, "families="+strings.Join(ts.Families, ","))
	}
	if len(ts.Sizes) > 0 {
		sz := make([]string, len(ts.Sizes))
		for i, s := range ts.Sizes {
			sz[i] = strconv.Itoa(s)
		}
		parts = append(parts, "sizes="+strings.Join(sz, ","))
	}
	if ts.Seed != 0 {
		parts = append(parts, "seed="+strconv.FormatInt(ts.Seed, 10))
	}
	return strings.Join(parts, ";")
}

// ParseTournamentSpec parses "key=value;key=value" with keys families
// (comma-separated workload names), sizes (comma-separated positive
// ints) and seed. Empty input yields the default spec; unknown keys,
// malformed numbers, and out-of-range values are errors, never panics.
func ParseTournamentSpec(s string) (*TournamentSpec, error) {
	spec := &TournamentSpec{}
	s = strings.TrimSpace(s)
	if s == "" {
		return spec, nil
	}
	for _, kv := range strings.Split(s, ";") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("tournament spec: %q is not key=value", kv)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch key {
		case "families":
			for _, f := range strings.Split(val, ",") {
				f = strings.TrimSpace(f)
				switch f {
				case "JOB", "WK1", "WK2":
					spec.Families = append(spec.Families, f)
				default:
					return nil, fmt.Errorf("tournament spec: unknown family %q", f)
				}
			}
		case "sizes":
			for _, ns := range strings.Split(val, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(ns))
				if err != nil {
					return nil, fmt.Errorf("tournament spec: size %q: %w", ns, err)
				}
				if n < 1 || n > 4096 {
					return nil, fmt.Errorf("tournament spec: size %d out of range [1, 4096]", n)
				}
				spec.Sizes = append(spec.Sizes, n)
			}
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("tournament spec: seed %q: %w", val, err)
			}
			spec.Seed = n
		default:
			return nil, fmt.Errorf("tournament spec: unknown key %q", key)
		}
	}
	return spec, nil
}

// TournamentCell is one (family, |Z|, selector) measurement.
type TournamentCell struct {
	Family   string  `json:"family"`
	Z        int     `json:"z"`
	Selector string  `json:"selector"`
	Utility  float64 `json:"utility"`
	// OptUtility is the exact optimum of the rung's instance (always
	// available: mvs.OptimalExact decomposes and finishes).
	OptUtility float64 `json:"opt_utility"`
	// Gap is (opt − utility)/opt, or 0 when the optimum is 0.
	Gap    float64 `json:"gap"`
	WallMS float64 `json:"wall_ms"`
	// Selected lists the chosen view indices on the rung's (fingerprint-
	// ordered) candidate axis.
	Selected []int `json:"selected"`
}

// TournamentResult is the full grid plus the rendered frontier.
type TournamentResult struct {
	Spec  string           `json:"spec"`
	Cells []TournamentCell `json:"cells"`
}

// TournamentSelectors lists the raced selector names in report order.
func TournamentSelectors() []string {
	return []string{"topkben", "iterview", "dqn", "localsearch"}
}

// tournamentRung races every selector on one projected instance.
func tournamentRung(family string, sub *mvs.Instance, spec TournamentSpec, cells *[]TournamentCell) error {
	opt := mvs.OptimalExact(sub, 0)
	if !opt.Optimal {
		return fmt.Errorf("tournament: OptimalExact did not finish on %s |Z|=%d", family, sub.NumViews())
	}
	add := func(name string, st *mvs.State, reported float64, wall time.Duration) error {
		if !sub.Feasible(st) {
			return fmt.Errorf("tournament: %s produced an infeasible selection on %s |Z|=%d", name, family, sub.NumViews())
		}
		if u := sub.Utility(st); u != reported { //lint:allow floateq bit-identity with core accounting is the gate's property
			return fmt.Errorf("tournament: %s reported utility %v but core accounting gives %v on %s |Z|=%d",
				name, reported, u, family, sub.NumViews())
		}
		gap := 0.0
		if opt.Utility > 1e-12 {
			gap = (opt.Utility - reported) / opt.Utility
		}
		*cells = append(*cells, TournamentCell{
			Family: family, Z: sub.NumViews(), Selector: name,
			Utility: reported, OptUtility: opt.Utility, Gap: gap,
			WallMS:   float64(wall.Microseconds()) / 1000,
			Selected: mvs.SelectedViews(st.Z),
		})
		return nil
	}

	// Top-kBen.
	start := time.Now()
	k, u := selbase.BestK(sub, nil, selbase.TopkBen)
	ranking := selbase.Ranking(sub, nil, selbase.TopkBen)
	st := mvs.NewState(sub)
	for _, j := range ranking[:k] {
		st.Z[j] = true
	}
	st.Y, _ = sub.BestY(st.Z)
	if err := add("topkben", st, u, time.Since(start)); err != nil {
		return err
	}

	// IterView.
	start = time.Now()
	iv := mvs.IterView(sub, mvs.IterOptions{
		Iterations: 60,
		Rand:       rand.New(rand.NewSource(spec.Seed)),
	})
	if err := add("iterview", iv.Best, iv.BestUtility, time.Since(start)); err != nil {
		return err
	}

	// DQN (small online budget — the tournament measures the serving
	// loop's marginal choice, not offline training).
	start = time.Now()
	rv := rl.RLView(sub, rl.Options{
		InitIterations:  4,
		Epochs:          8,
		MemoryThreshold: 8,
		LearnEvery:      2,
		Agent:           rl.AgentConfig{Gamma: 0.9, Seed: spec.Seed},
		Rand:            rand.New(rand.NewSource(spec.Seed)),
	})
	if err := add("dqn", rv.Best, rv.BestUtility, time.Since(start)); err != nil {
		return err
	}

	// Local search.
	start = time.Now()
	ls := mvs.LocalSearch(sub, mvs.LocalSearchOptions{Rand: rand.New(rand.NewSource(spec.Seed))})
	return add("localsearch", ls.Best, ls.BestUtility, time.Since(start))
}

// Tournament races Top-kBen, IterView, DQN and local search across the
// workload families at growing |Z|, on ground-truth (measured-benefit)
// instances, each rung against its exact optimum (mvs.OptimalExact).
// Every rung's candidate subset is a seeded sample of the family's
// fingerprint-ordered candidate axis, kept in ascending index order so
// sub-instances inherit the fingerprint ordering.
func Tournament(s Scale, spec *TournamentSpec) (*TournamentResult, error) {
	ts := spec.withDefaults()
	want := map[string]bool{}
	for _, f := range ts.Families {
		want[f] = true
	}
	res := &TournamentResult{Spec: ts.String()}
	for _, w := range Workloads(s) {
		if len(want) > 0 && !want[w.Name] {
			continue
		}
		_, p, err := groundTruthProblem(w, s)
		if err != nil {
			return nil, fmt.Errorf("tournament: %s: %w", w.Name, err)
		}
		full := p.Instance.NumViews()
		if full == 0 {
			continue
		}
		sizes := ts.Sizes
		if len(sizes) == 0 {
			sizes = []int{4, 8, 12, full}
		}
		seen := map[int]bool{}
		var ladder []int
		for _, z := range sizes {
			if z > full {
				z = full
			}
			if z < 1 || seen[z] {
				continue
			}
			seen[z] = true
			ladder = append(ladder, z)
		}
		sort.Ints(ladder)

		rng := rand.New(rand.NewSource(ts.Seed + int64(len(w.Name))*1009 + int64(full)))
		for _, z := range ladder {
			members := rng.Perm(full)[:z]
			sort.Ints(members)
			sub, _ := mvs.Project(p.Instance, members)
			if err := tournamentRung(w.Name, sub, ts, &res.Cells); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// tournamentGapBounds are the asserted per-selector optimality-gap
// ceilings, on every rung. They intentionally match the property-layer
// bounds in internal/mvs: the tournament re-checks them on measured (not
// synthetic) instances.
var tournamentGapBounds = map[string]float64{
	"topkben":     0.15,
	"iterview":    0.35,
	"dqn":         0.35,
	"localsearch": 1e-6,
}

// Check is the differential-correctness gate: on every rung, each
// selector's gap to the exact optimum must stay within its asserted bound
// and never go negative. It returns nil when the grid holds.
func (r *TournamentResult) Check() error {
	for _, c := range r.Cells {
		bound, ok := tournamentGapBounds[c.Selector]
		if !ok {
			return fmt.Errorf("tournament: no gap bound registered for selector %q", c.Selector)
		}
		if c.Gap > bound+1e-9 {
			return fmt.Errorf("tournament: %s on %s |Z|=%d gap %.4f exceeds bound %.4f (utility %v vs optimum %v)",
				c.Selector, c.Family, c.Z, c.Gap, bound, c.Utility, c.OptUtility)
		}
		if c.Gap < -1e-9 {
			return fmt.Errorf("tournament: %s on %s |Z|=%d claims utility %v above the optimum %v",
				c.Selector, c.Family, c.Z, c.Utility, c.OptUtility)
		}
	}
	return nil
}

// JSON renders the grid as the BENCH_10 machine-readable payload.
func (r *TournamentResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Render formats the utility/wall-clock frontier per family and |Z|.
func (r *TournamentResult) Render() string {
	var b strings.Builder
	b.WriteString("Tournament: utility / wall-clock frontier per selector and |Z|\n")
	type rung struct {
		family string
		z      int
	}
	byRung := map[rung]map[string]TournamentCell{}
	var order []rung
	for _, c := range r.Cells {
		k := rung{c.Family, c.Z}
		if byRung[k] == nil {
			byRung[k] = map[string]TournamentCell{}
			order = append(order, k)
		}
		byRung[k][c.Selector] = c
	}
	for _, k := range order {
		cells := byRung[k]
		fmt.Fprintf(&b, "  %s |Z|=%d (OPT $%.4f):\n", k.family, k.z, cells["topkben"].OptUtility)
		for _, name := range TournamentSelectors() {
			c, ok := cells[name]
			if !ok {
				continue
			}
			fmt.Fprintf(&b, "    %-12s utility=$%-10.4f gap=%5.1f%% wall=%8.2fms views=%d\n",
				name, c.Utility, 100*c.Gap, c.WallMS, len(c.Selected))
		}
	}
	return b.String()
}
