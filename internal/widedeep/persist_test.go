package widedeep

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"autoview/internal/featenc"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	cat := testCatalog(t)
	vocab := featenc.NewVocab(cat, []string{"cnt"})
	cfg := Config{Encoder: featenc.Config{EmbedDim: 4, Hidden: 4}}
	m := New(vocab, cfg, rand.New(rand.NewSource(1)))
	samples := syntheticSamples(t, cat, 12)
	if _, err := m.Fit(samples, TrainConfig{Epochs: 3, BatchSize: 4}); err != nil {
		t.Fatal(err)
	}
	want := m.Predict(samples[0].F)

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// A fresh model with different random init must reproduce the
	// prediction exactly after Load.
	m2 := New(vocab, cfg, rand.New(rand.NewSource(999)))
	if m2.Predict(samples[0].F) == want {
		t.Fatal("fresh model accidentally matches; test is vacuous")
	}
	if err := m2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if got := m2.Predict(samples[0].F); got != want {
		t.Errorf("prediction after load = %v, want %v", got, want)
	}
}

func TestSaveLoadPredictionsOn100Inputs(t *testing.T) {
	cat := testCatalog(t)
	vocab := featenc.NewVocab(cat, []string{"cnt"})
	cfg := Config{Encoder: featenc.Config{EmbedDim: 4, Hidden: 4}}
	m := New(vocab, cfg, rand.New(rand.NewSource(21)))
	samples := syntheticSamples(t, cat, 100)
	if _, err := m.Fit(samples[:32], TrainConfig{Epochs: 2, BatchSize: 8}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2 := New(vocab, cfg, rand.New(rand.NewSource(777)))
	if err := m2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	for i, s := range samples {
		want := m.Predict(s.F)
		if got := m2.Predict(s.F); got != want {
			t.Fatalf("input %d: loaded model predicts %g, original %g", i, got, want)
		}
	}
}

func TestLoadRejectsShapeMismatch(t *testing.T) {
	cat := testCatalog(t)
	vocab := featenc.NewVocab(cat, nil)
	m := New(vocab, Config{Encoder: featenc.Config{EmbedDim: 4, Hidden: 4}}, rand.New(rand.NewSource(2)))
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := New(vocab, Config{Encoder: featenc.Config{EmbedDim: 8, Hidden: 8}}, rand.New(rand.NewSource(3)))
	err := other.Load(&buf)
	if err == nil || !strings.Contains(err.Error(), "shape") {
		t.Errorf("want shape mismatch error, got %v", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cat := testCatalog(t)
	vocab := featenc.NewVocab(cat, nil)
	m := New(vocab, Config{Encoder: featenc.Config{EmbedDim: 4, Hidden: 4}}, rand.New(rand.NewSource(4)))
	if err := m.Load(strings.NewReader("{nope")); err == nil {
		t.Error("garbage should not load")
	}
}

// TestLoadRejectsBadNormalizer: a checkpoint is operator input, and one
// whose scaling state the forward passes cannot index or divide by must
// be refused before it touches the model — a 2-entry normalizer used to
// load cleanly and panic inside the next Predict.
func TestLoadRejectsBadNormalizer(t *testing.T) {
	cat := testCatalog(t)
	vocab := featenc.NewVocab(cat, []string{"cnt"})
	cfg := Config{Encoder: featenc.Config{EmbedDim: 4, Hidden: 4}}
	m := New(vocab, cfg, rand.New(rand.NewSource(5)))
	samples := syntheticSamples(t, cat, 12)
	if _, err := m.Fit(samples, TrainConfig{Epochs: 2, BatchSize: 4}); err != nil {
		t.Fatal(err)
	}
	var good bytes.Buffer
	if err := m.Save(&good); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		mutate func(snap map[string]any)
	}{
		{"missing", func(snap map[string]any) { delete(snap, "normalizer") }},
		{"short", func(snap map[string]any) {
			snap["normalizer"] = map[string]any{"Mean": []float64{0, 0}, "Std": []float64{1, 1}}
		}},
		{"lengths differ", func(snap map[string]any) {
			norm := snap["normalizer"].(map[string]any)
			norm["Std"] = norm["Std"].([]any)[1:]
		}},
		{"zero std", func(snap map[string]any) {
			snap["normalizer"].(map[string]any)["Std"].([]any)[0] = 0.0
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var snap map[string]any
			if err := json.Unmarshal(good.Bytes(), &snap); err != nil {
				t.Fatal(err)
			}
			tc.mutate(snap)
			bad, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			// A differently seeded target: had Load written the weights
			// before refusing, its prediction would move.
			target := New(vocab, cfg, rand.New(rand.NewSource(6)))
			want := target.Predict(samples[0].F)
			if err := target.Load(bytes.NewReader(bad)); err == nil {
				t.Fatal("checkpoint loaded")
			}
			if got := target.Predict(samples[0].F); got != want {
				t.Errorf("rejected checkpoint changed the model: predicts %v, was %v", got, want)
			}
		})
	}
}

func TestWideOnlyAndDeepOnlyAblations(t *testing.T) {
	cat := testCatalog(t)
	vocab := featenc.NewVocab(cat, []string{"cnt"})
	samples := syntheticSamples(t, cat, 16)
	for _, cfg := range []Config{
		{Encoder: featenc.Config{EmbedDim: 4, Hidden: 4}, WideOnly: true},
		{Encoder: featenc.Config{EmbedDim: 4, Hidden: 4}, DeepOnly: true},
	} {
		m := New(vocab, cfg, rand.New(rand.NewSource(5)))
		if _, err := m.Fit(samples, TrainConfig{Epochs: 4, BatchSize: 8}); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		y := m.Predict(samples[0].F)
		if math.IsNaN(y) || math.IsInf(y, 0) {
			t.Errorf("%+v: prediction %v", cfg, y)
		}
	}
}

func TestWideOnlyIgnoresPlanPerturbation(t *testing.T) {
	// The wide part sees only numeric features: two samples with the
	// same numerics but different plans must predict identically under
	// WideOnly (and generally differently under the full model).
	cat := testCatalog(t)
	vocab := featenc.NewVocab(cat, []string{"cnt"})
	samples := syntheticSamples(t, cat, 8)
	a, b := samples[0].F, samples[0].F
	b.QueryPlan = samples[1].F.QueryPlan // different plan text
	b.Numeric = a.Numeric

	wide := New(vocab, Config{Encoder: featenc.Config{EmbedDim: 4, Hidden: 4}, WideOnly: true}, rand.New(rand.NewSource(6)))
	if _, err := wide.Fit(samples, TrainConfig{Epochs: 2, BatchSize: 4}); err != nil {
		t.Fatal(err)
	}
	if wide.Predict(a) != wide.Predict(b) {
		t.Error("WideOnly prediction depends on plan text")
	}
}
