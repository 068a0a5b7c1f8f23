package experiments

import (
	"encoding/json"
	"math/rand"
	"sort"
	"testing"

	"autoview/internal/mvs"
	"autoview/internal/workload"
)

func TestParseTournamentSpec(t *testing.T) {
	cases := []struct {
		in   string
		want TournamentSpec
	}{
		{"", TournamentSpec{}},
		{"families=JOB", TournamentSpec{Families: []string{"JOB"}}},
		{"families=JOB,WK2;sizes=4,8;seed=7",
			TournamentSpec{Families: []string{"JOB", "WK2"}, Sizes: []int{4, 8}, Seed: 7}},
		{" sizes = 12 ; seed = -1 ", TournamentSpec{Sizes: []int{12}, Seed: -1}},
	}
	for _, tc := range cases {
		got, err := ParseTournamentSpec(tc.in)
		if err != nil {
			t.Errorf("ParseTournamentSpec(%q): %v", tc.in, err)
			continue
		}
		if got.String() != tc.want.String() {
			t.Errorf("ParseTournamentSpec(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
		// Round trip: String() must re-parse to the same spec.
		again, err := ParseTournamentSpec(got.String())
		if err != nil || again.String() != got.String() {
			t.Errorf("round trip of %q failed: %v (%q)", tc.in, err, got.String())
		}
	}
	for _, bad := range []string{
		"families=BOB", "sizes=0", "sizes=9999", "sizes=x", "seed=x",
		"restarts=4", "ilpmax=10", "nodes=500000",
		"unknown=1", "justakey", "families=",
	} {
		if _, err := ParseTournamentSpec(bad); err == nil {
			t.Errorf("ParseTournamentSpec(%q) should fail", bad)
		}
	}
}

func FuzzTournamentSpec(f *testing.F) {
	f.Add("")
	f.Add("families=JOB,WK1;sizes=4,8,12;seed=1")
	f.Add("sizes=4;seed=-3")
	f.Add("families=;sizes=;;=")
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseTournamentSpec(s)
		if err != nil {
			return
		}
		// Accepted specs must round-trip through their own rendering.
		again, err := ParseTournamentSpec(spec.String())
		if err != nil {
			t.Fatalf("String() %q of accepted spec %q does not re-parse: %v", spec.String(), s, err)
		}
		if again.String() != spec.String() {
			t.Fatalf("round trip drifted: %q -> %q", spec.String(), again.String())
		}
	})
}

// tournamentInstance rebuilds the deterministic JOB rung the smoke and
// golden tests share: the Quick-scale measured JOB instance projected to
// a seeded 12-candidate sample.
func tournamentInstance(t *testing.T) *mvs.Instance {
	t.Helper()
	w := workload.JOB()
	_, p, err := groundTruthProblem(w, Quick)
	if err != nil {
		t.Fatalf("ground truth problem: %v", err)
	}
	full := p.Instance.NumViews()
	if full < 12 {
		t.Fatalf("JOB quick instance has only %d candidates", full)
	}
	members := rand.New(rand.NewSource(2024)).Perm(full)[:12]
	sort.Ints(members)
	sub, _ := mvs.Project(p.Instance, members)
	return sub
}

// TestTournamentSmokeAndGate runs a tiny tournament end to end: every
// selector completes on every rung, the differential gate holds, and the
// JSON payload round-trips.
func TestTournamentSmokeAndGate(t *testing.T) {
	if testing.Short() {
		t.Skip("tournament races four selectors per rung; skipped in -short")
	}
	if raceEnabled {
		t.Skip("deterministic single-goroutine pipeline; too slow under -race")
	}
	spec, err := ParseTournamentSpec("families=JOB;sizes=4,8;seed=1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Tournament(Quick, spec)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := 2 * len(TournamentSelectors())
	if len(res.Cells) != wantCells {
		t.Fatalf("got %d cells, want %d", len(res.Cells), wantCells)
	}
	if err := res.Check(); err != nil {
		t.Fatalf("differential gate: %v", err)
	}
	for _, c := range res.Cells {
		if c.WallMS < 0 {
			t.Errorf("%s |Z|=%d negative wall time", c.Selector, c.Z)
		}
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back TournamentResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("JSON round trip: %v", err)
	}
	if len(back.Cells) != len(res.Cells) || back.Spec != res.Spec {
		t.Errorf("JSON round trip dropped data")
	}
	if res.Render() == "" {
		t.Errorf("empty rendering")
	}
}

// TestTournamentCheckRejectsBadGrid pins the gate's failure paths on
// synthetic grids (no pipeline run needed).
func TestTournamentCheckRejectsBadGrid(t *testing.T) {
	bad := &TournamentResult{Cells: []TournamentCell{
		{Family: "JOB", Z: 8, Selector: "localsearch", Utility: 1, OptUtility: 2, Gap: 0.5},
	}}
	if err := bad.Check(); err == nil {
		t.Errorf("gap over bound must fail the gate")
	}
	above := &TournamentResult{Cells: []TournamentCell{
		{Family: "JOB", Z: 8, Selector: "localsearch", Utility: 3, OptUtility: 2, Gap: -0.5},
	}}
	if err := above.Check(); err == nil {
		t.Errorf("utility above optimum must fail the gate")
	}
	unknown := &TournamentResult{Cells: []TournamentCell{
		{Family: "JOB", Z: 8, Selector: "mystery", Gap: 0},
	}}
	if err := unknown.Check(); err == nil {
		t.Errorf("unregistered selector must fail the gate")
	}
	full := &TournamentResult{Cells: []TournamentCell{
		{Family: "JOB", Z: 80, Selector: "localsearch", Utility: 1.8, OptUtility: 2, Gap: 0.1},
	}}
	if err := full.Check(); err == nil {
		t.Errorf("full rungs are gated like every other rung")
	}
}

// TestLocalSearchGoldenTraceJOB pins the local-search selector's decision
// on a fixed JOB snapshot: seed 42 on the seeded 12-candidate projection
// must reproduce this exact selection and utility, so selector refactors
// cannot silently change decisions.
func TestLocalSearchGoldenTraceJOB(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the measured JOB instance; skipped in -short")
	}
	if raceEnabled {
		t.Skip("deterministic single-goroutine pipeline; too slow under -race")
	}
	sub := tournamentInstance(t)
	res := mvs.LocalSearch(sub, mvs.LocalSearchOptions{Rand: rand.New(rand.NewSource(42))})

	// Golden values recorded from the first run; bit-exact equality is
	// intentional — the instance is measured deterministically and the
	// search is seeded.
	const goldenUtility = 0.10585161924146368
	goldenSelection := []int{0, 1, 2, 8, 9, 11}

	if res.BestUtility != goldenUtility {
		t.Errorf("utility %.17g, golden %.17g", res.BestUtility, goldenUtility)
	}
	got := mvs.SelectedViews(res.Best.Z)
	if len(got) != len(goldenSelection) {
		t.Fatalf("selection %v, golden %v", got, goldenSelection)
	}
	for i := range got {
		if got[i] != goldenSelection[i] {
			t.Fatalf("selection %v, golden %v", got, goldenSelection)
		}
	}
}
