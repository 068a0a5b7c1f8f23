package widedeep

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autoview/internal/catalog"
	"autoview/internal/featenc"
	"autoview/internal/plan"
)

// memoPlans is a pool of PlanFeat-backed plans the way serving holds
// them: one PlanFeat per distinct plan, shared by every pair that uses
// it. Plans 0..memoQueries-1 are queries that differ in a literal (so
// they are equally long); the rest are their subqueries, the views.
type memoPlans struct {
	cat   *catalog.Catalog
	nodes []*plan.Node
	pf    []*featenc.PlanFeat
}

const memoQueries = 4

func newMemoPlans(t *testing.T) *memoPlans {
	t.Helper()
	mp := &memoPlans{cat: testCatalog(t)}
	var views []*plan.Node
	for _, dt := range []string{"10", "22", "35", "47"}[:memoQueries] {
		q, err := plan.Parse(`select t1.user_id, count(*) as cnt
		 from ( select user_id, memo from user_memo where dt='`+dt+`' and memo_type = 'pen' ) t1
		 inner join ( select user_id, action from user_action where type = 2 and dt='`+dt+`' ) t2
		 on t1.user_id = t2.user_id group by t1.user_id`, mp.cat)
		if err != nil {
			t.Fatal(err)
		}
		mp.nodes = append(mp.nodes, q)
		for _, sub := range plan.ExtractSubqueries(q) {
			views = append(views, sub.Root)
		}
	}
	mp.nodes = append(mp.nodes, views...)
	mp.renew()
	return mp
}

// renew replaces every PlanFeat, as if the plan cache had been emptied.
func (mp *memoPlans) renew() {
	mp.pf = mp.pf[:0]
	for _, n := range mp.nodes {
		mp.pf = append(mp.pf, featenc.Precompute(n))
	}
}

// memoPair pairs two plans of the pool by index: normally a query and
// view(i), but any plan can sit on either side.
type memoPair struct{ q, v int }

// view is the pool index of view number i.
func view(i int) int { return memoQueries + i }

// batch extracts the pairs over the pool's shared PlanFeats.
func (mp *memoPlans) batch(pairs []memoPair) []featenc.Features {
	ex := featenc.NewBatchExtractor(mp.cat)
	fs := make([]featenc.Features, len(pairs))
	for i, p := range pairs {
		fs[i] = ex.ExtractPre(mp.pf[p.q], mp.pf[p.v])
	}
	return fs
}

// oracle is the memo-free answer: Predict, pair by pair, on features
// precomputed from the plans afresh.
func (mp *memoPlans) oracle(m *Model, pairs []memoPair) []float64 {
	out := make([]float64, len(pairs))
	for i, p := range pairs {
		out[i] = m.Predict(featenc.Extract(mp.nodes[p.q], mp.nodes[p.v], mp.cat))
	}
	return out
}

func requireSame(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] { // bit-identity is the property under test
			t.Fatalf("%s: element %d: PredictBatch %v, Predict %v", what, i, got[i], want[i])
		}
	}
}

// TestPredictBatchPlanMemoBitIdentical holds the plan-code memo to the
// per-pair oracle: whatever a PlanFeat's slot holds — nothing, this
// mirror's code, another mirror's — every element of PredictBatch is
// the Predict of freshly precomputed features under the weights that
// are live.
func TestPredictBatchPlanMemoBitIdentical(t *testing.T) {
	first := []memoPair{{0, view(0)}, {0, view(1)}, {1, view(0)}, {1, view(5)}, {0, view(5)}}
	mixed := []memoPair{
		{0, view(9)},               // memoized query, fresh view
		{2, view(1)},               // fresh query, memoized view
		{1, view(0)},               // both memoized
		{3, view(11)},              // both fresh
		{2, 2},                     // query and view are one PlanFeat
		{2, 3},                     // equal-length query and view plans
		{3, 0},                     // the same, second plan memoized by now
		{0, view(9)}, {3, view(0)}, // repeats inside one batch
	}

	t.Run("variants", func(t *testing.T) {
		for name, enc := range Variants() {
			enc.EmbedDim, enc.Hidden = 4, 4
			m, _ := inferTestModel(t, enc, Config{WideDim: 4, DeepHidden: 6, RegHidden: 4})
			mp := newMemoPlans(t)
			wantFirst, wantMixed := mp.oracle(m, first), mp.oracle(m, mixed)
			for _, par := range []int{0, 1, 3, 8} {
				mp.renew()
				uses, encoded := obsInferPlans.Value(), obsInferPlansEncoded.Value()
				requireSame(t, name+" cold", m.PredictBatch(mp.batch(first), par), wantFirst)
				if u, e := obsInferPlans.Value()-uses, obsInferPlansEncoded.Value()-encoded; u != int64(2*len(first)) || e != u {
					t.Fatalf("%s parallelism %d: cold batch counted %d plan uses, %d encoded; want %d of each", name, par, u, e, 2*len(first))
				}
				encoded = obsInferPlansEncoded.Value()
				requireSame(t, name+" warm", m.PredictBatch(mp.batch(first), par), wantFirst)
				if e := obsInferPlansEncoded.Value() - encoded; e != 0 {
					t.Fatalf("%s parallelism %d: warm batch encoded %d plans, want 0", name, par, e)
				}
				requireSame(t, name+" mixed", m.PredictBatch(mp.batch(mixed), par), wantMixed)
				requireSame(t, name+" mixed, warm", m.PredictBatch(mp.batch(mixed), par), wantMixed)
			}
		}
	})

	// A code is valid for one mirror generation: however the weights
	// change, the PlanFeats that served the old model must yield the new
	// model's answers, and must not keep the old mirror alive.
	t.Run("staleness", func(t *testing.T) {
		mp := newMemoPlans(t)
		samples := syntheticSamples(t, mp.cat, 16)
		vocab := featenc.NewVocab(mp.cat, []string{"cnt"})
		cfg := Config{Encoder: featenc.Config{EmbedDim: 4, Hidden: 4}, WideDim: 4, DeepHidden: 6, RegHidden: 4}
		fit := func(m *Model, seed int64) {
			t.Helper()
			if _, err := m.Fit(samples, TrainConfig{Epochs: 2, BatchSize: 8, Seed: seed}); err != nil {
				t.Fatal(err)
			}
		}
		m := New(vocab, cfg, rand.New(rand.NewSource(1)))
		fit(m, 1)
		fs := mp.batch(mixed) // held across every swap below, like plan-cache entries
		prev := mp.oracle(m, mixed)
		requireSame(t, "first model", m.PredictBatch(fs, 2), prev)

		var collected atomic.Bool
		runtime.SetFinalizer(m.kernels().enc, func(*featenc.Encoder32) { collected.Store(true) })

		other := New(vocab, cfg, rand.New(rand.NewSource(2)))
		fit(other, 3)
		var ckpt bytes.Buffer
		if err := other.Save(&ckpt); err != nil {
			t.Fatal(err)
		}
		swaps := []struct {
			name string
			do   func()
		}{
			{"second Fit", func() { fit(m, 2) }},
			{"Load", func() {
				if err := m.Load(&ckpt); err != nil {
					t.Fatal(err)
				}
			}},
			{"Params write + InvalidateKernels", func() {
				for _, p := range m.Params() {
					for i := range p.Val {
						p.Val[i] *= 0.5
					}
				}
				m.InvalidateKernels()
			}},
		}
		for _, s := range swaps {
			s.do()
			want := mp.oracle(m, mixed)
			moved := false
			for i := range want {
				moved = moved || want[i] != prev[i]
			}
			if !moved {
				t.Fatalf("%s: the new weights answer exactly as the old; the swap proves nothing", s.name)
			}
			requireSame(t, "after "+s.name, m.PredictBatch(fs, 2), want)
			requireSame(t, "after "+s.name+", warm", m.PredictBatch(fs, 2), want)
			prev = want
		}
		for i := 0; i < 50 && !collected.Load(); i++ {
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		if !collected.Load() {
			t.Fatal("the first model's Encoder32 is still reachable after three swaps and a GC: a memo slot holds more than a code and a number")
		}
		runtime.KeepAlive(fs)
	})

	// Fills race benignly: every writer of one slot stores the same bits.
	t.Run("concurrent", func(t *testing.T) {
		m, _ := inferTestModel(t, featenc.Config{EmbedDim: 4, Hidden: 4}, Config{WideDim: 4, DeepHidden: 6, RegHidden: 4})
		mp := newMemoPlans(t)
		batches := [][]memoPair{first, mixed, mixed[2:6], first[1:4]}
		var want [][]float64
		for _, b := range batches {
			want = append(want, mp.oracle(m, b))
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < 4; round++ {
					b := (g + round) % len(batches)
					got := m.PredictBatch(mp.batch(batches[b]), 1+g%3)
					for i := range got {
						if got[i] != want[b][i] { // bit-identity is the property under test
							t.Errorf("goroutine %d round %d: element %d: PredictBatch %v, Predict %v", g, round, i, got[i], want[b][i])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	})
}

// TestPredictBatchPlanMemoAllocs is the memo's allocation gate. Warm —
// every plan memoized — a batch allocates no more than the same batch
// without memo slots (the steady state before there was a memo), at 4
// and at 32 pairs. The fill costs two objects per plan, the code and its
// tag, and nothing per operator: with the mirror rebuilt before every
// run so that each one fills, a batch costs exactly 4 objects per pair
// more than its slot-free twin, whether its views hold one operator or
// seven.
func TestPredictBatchPlanMemoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops random Put items under -race; allocation counts need the plain build")
	}
	disableObs(t)
	m, _ := inferTestModel(t, featenc.Config{EmbedDim: 4, Hidden: 4}, Config{WideDim: 4, DeepHidden: 6, RegHidden: 4})
	mp := newMemoPlans(t)
	shortest, longest := view(0), view(0)
	for i := view(0); i < len(mp.pf); i++ {
		if len(mp.pf[i].Ser) < len(mp.pf[shortest].Ser) {
			shortest = i
		}
		if len(mp.pf[i].Ser) > len(mp.pf[longest].Ser) {
			longest = i
		}
	}
	if len(mp.pf[shortest].Ser) == len(mp.pf[longest].Ser) {
		t.Fatal("every view plan is equally long; the per-operator half of the gate checks nothing")
	}
	slotFree := func(fs []featenc.Features) []featenc.Features {
		out := append([]featenc.Features(nil), fs...)
		for i := range out {
			out[i].QueryFeat, out[i].ViewFeat = nil, nil
		}
		return out
	}
	for _, n := range []int{4, 32} {
		for _, v := range []int{shortest, longest} {
			pairs := make([]memoPair, n)
			for i := range pairs {
				pairs[i] = memoPair{i % memoQueries, v}
			}
			memo := mp.batch(pairs)
			bare := slotFree(memo)
			m.PredictBatch(memo, 1) // fill, and grow the pooled scratch

			steady := testing.AllocsPerRun(50, func() { m.PredictBatch(bare, 1) })
			if warm := testing.AllocsPerRun(50, func() { m.PredictBatch(memo, 1) }); warm > steady {
				t.Errorf("%d pairs: a warm memoized batch allocates %v objects, the slot-free batch %v", n, warm, steady)
			}
			rebuilt := testing.AllocsPerRun(50, func() { m.InvalidateKernels(); m.PredictBatch(bare, 1) })
			filling := testing.AllocsPerRun(50, func() { m.InvalidateKernels(); m.PredictBatch(memo, 1) })
			if filling-rebuilt != float64(4*n) {
				t.Errorf("%d pairs of %d+%d operators: filling costs %v objects more than not, want %d (2 per plan)",
					n, len(memo[0].QueryPlan), len(memo[0].ViewPlan), filling-rebuilt, 4*n)
			}
		}
	}
}
