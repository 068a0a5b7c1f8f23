package widedeep

import (
	"math/rand"
	"sync"
	"testing"

	"autoview/internal/featenc"
)

// TestPredictBatchMatchesPredict is the batched-inference determinism
// guarantee: every element of PredictBatch equals the standalone
// Predict result bit-for-bit, at any parallelism, on trained and
// untrained models alike.
func TestPredictBatchMatchesPredict(t *testing.T) {
	cat := testCatalog(t)
	samples := syntheticSamples(t, cat, 24)
	vocab := featenc.NewVocab(cat, []string{"cnt"})
	model := New(vocab, Config{Encoder: featenc.Config{EmbedDim: 8, Hidden: 8}}, rand.New(rand.NewSource(5)))
	if _, err := model.Fit(samples, TrainConfig{Epochs: 2, BatchSize: 8, LearnRate: 0.005}); err != nil {
		t.Fatal(err)
	}

	fs := make([]featenc.Features, len(samples))
	for i, s := range samples {
		fs[i] = s.F
	}
	want := make([]float64, len(fs))
	for i, f := range fs {
		want[i] = model.Predict(f)
	}
	for _, par := range []int{0, 1, 2, 8} {
		got := model.PredictBatch(fs, par)
		if len(got) != len(want) {
			t.Fatalf("parallelism %d: %d results for %d inputs", par, len(got), len(fs))
		}
		for i := range want {
			if got[i] != want[i] { // bit-identity is the property under test
				t.Fatalf("parallelism %d: element %d: batch %v sequential %v", par, i, got[i], want[i])
			}
		}
	}
}

func TestPredictBatchEmpty(t *testing.T) {
	cat := testCatalog(t)
	vocab := featenc.NewVocab(cat, nil)
	model := New(vocab, Config{Encoder: featenc.Config{EmbedDim: 4, Hidden: 4}}, rand.New(rand.NewSource(1)))
	if got := model.PredictBatch(nil, 4); len(got) != 0 {
		t.Fatalf("expected no results, got %d", len(got))
	}
}

// TestPredictConcurrentOnFreshModel: Predict is safe for concurrent use
// from the moment New returns — before any Fit or Load — so nothing a
// first call does may write shared model state unsynchronised (run under
// -race; the lazily installed normalizer used to be such a write).
func TestPredictConcurrentOnFreshModel(t *testing.T) {
	cat := testCatalog(t)
	f := syntheticSamples(t, cat, 1)[0].F
	vocab := featenc.NewVocab(cat, []string{"cnt"})
	model := New(vocab, Config{Encoder: featenc.Config{EmbedDim: 4, Hidden: 4}}, rand.New(rand.NewSource(3)))

	var got [2]float64
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = model.Predict(f)
		}()
	}
	wg.Wait()
	if got[0] != got[1] { // bit-identity is the property under test
		t.Fatalf("concurrent first predictions differ: %v vs %v", got[0], got[1])
	}
}
