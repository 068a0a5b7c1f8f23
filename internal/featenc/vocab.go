// Package featenc implements the paper's feature extraction (Section IV-A)
// and the non-numerical feature encoders (Section IV-B2): shared keyword
// embedding, char-CNN string encoding, two-level LSTM plan encoding, and
// average-pooled schema encoding. Ablation variants (N-Kw, N-Str, N-Exp)
// are produced by the Config switches.
//
// The encoders exist twice: Encoder's Encode* methods are the float64
// tape forward (training, and the reference), Encoder32's Infer* methods
// the float32 forward-only mirror that serving runs (infer32.go).
package featenc

import (
	"sort"

	"autoview/internal/catalog"
	"autoview/internal/plan"
)

// Vocab maps keywords to dense ids. Id 0 is reserved for unknown keywords.
type Vocab struct {
	ids   map[string]int
	words []string
}

// operatorKeywords are the plan-language keywords every vocabulary
// contains, independent of the database schema.
var operatorKeywords = []string{
	"Scan", "Filter", "Project", "Join", "Aggregate",
	"AND", "OR", "EQ", "NE", "LT", "LE", "GT", "GE",
	"COUNT", "SUM", "AVG", "MIN", "MAX",
	"inner", "left",
}

// NewVocab builds a vocabulary from the catalog's schema keywords, the
// fixed operator keywords, and any extra tokens (e.g. derived column
// names observed in plans). The keyword embedding matrix is shared across
// all features "as their keywords belong to the same database".
func NewVocab(cat *catalog.Catalog, extra []string) *Vocab {
	set := make(map[string]bool)
	for _, k := range operatorKeywords {
		set[k] = true
	}
	for _, k := range cat.Keywords() {
		set[k] = true
	}
	for _, k := range extra {
		set[k] = true
	}
	words := make([]string, 0, len(set))
	for k := range set {
		words = append(words, k)
	}
	sort.Strings(words)

	v := &Vocab{ids: make(map[string]int, len(words)+1)}
	v.words = append(v.words, "<unk>")
	v.ids["<unk>"] = 0
	for _, w := range words {
		v.ids[w] = len(v.words)
		v.words = append(v.words, w)
	}
	return v
}

// CollectPlanKeywords walks plans and returns every keyword token that
// appears in their serializations, for vocabulary construction.
func CollectPlanKeywords(plans []*plan.Node) []string {
	set := make(map[string]bool)
	for _, p := range plans {
		for _, seq := range plan.Serialize(p) {
			for _, tok := range seq {
				if !tok.Str {
					set[tok.Text] = true
				}
			}
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// NewVocabFromWords reconstructs a vocabulary from its word list (as
// returned by Words), for loading persisted models.
func NewVocabFromWords(words []string) *Vocab {
	v := &Vocab{ids: make(map[string]int, len(words))}
	for _, w := range words {
		if _, dup := v.ids[w]; dup {
			continue
		}
		v.ids[w] = len(v.words)
		v.words = append(v.words, w)
	}
	if len(v.words) == 0 || v.words[0] != "<unk>" {
		panic("featenc: word list must start with <unk>")
	}
	return v
}

// Words returns the full word list in id order (index 0 is <unk>).
func (v *Vocab) Words() []string {
	return append([]string(nil), v.words...)
}

// ID returns the id for a keyword (0 for unknown).
func (v *Vocab) ID(word string) int { return v.ids[word] }

// Size returns the vocabulary size including the unknown slot.
func (v *Vocab) Size() int { return len(v.words) }
