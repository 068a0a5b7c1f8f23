package featenc

import (
	"errors"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"autoview/internal/catalog"
	"autoview/internal/nn"
	"autoview/internal/plan"
	"autoview/internal/sqlparse"
)

// NumericDim is the fixed width of the numerical feature vector.
const NumericDim = 8

// Features is one extracted input of the cost model: the plans of the
// query and the view, the schema keywords of the associated tables, and
// the numerical statistics of those tables (Section IV-A).
type Features struct {
	QueryPlan [][]plan.Tok
	ViewPlan  [][]plan.Tok
	Schema    []string  // keyword set of associated tables
	Numeric   []float64 // length NumericDim

	// QueryFeat and ViewFeat are the plan-local halves QueryPlan and
	// ViewPlan came from, whose memo slots widedeep.PredictBatch reads
	// and fills; nil in hand-built Features, which are plans that never
	// have a memo. Whoever replaces a plan must clear its Feat.
	QueryFeat, ViewFeat *PlanFeat
}

// toks converts an OpSeq slice into a plain [][]Tok.
func toks(seqs []plan.OpSeq) [][]plan.Tok {
	out := make([][]plan.Tok, len(seqs))
	for i, s := range seqs {
		out[i] = []plan.Tok(s)
	}
	return out
}

// PlanFeat is the plan-local half of feature extraction: everything
// Extract derives from one plan alone, independent of what it is paired
// with. Serving precomputes one PlanFeat per cached plan (and per
// advertised view at rotation time) so a warm request skips plan
// serialization and table-name sorting entirely. A PlanFeat is immutable
// after Precompute; ExtractPre shares its Ser slices into the returned
// Features, so callers must treat Features plans as read-only (the
// encoders do).
//
// The one exception is the code slot: the plan's code under one f32
// mirror (Encoder32.InferOpVecsMemo fills it, Encoder32.PlanCode reads
// it). A code is a function of Ser and the mirror's weights alone, so
// the slot can only ever hold what recomputing would return: concurrent
// fills under one mirror store the same bits through one atomic
// pointer, and a fill under another mirror carries another generation.
// It lives and dies with the PlanFeat — in serving, with the plan-cache
// entry that owns it.
type PlanFeat struct {
	Ser    [][]plan.Tok
	Tables []string // sorted, deduplicated
	Count  int

	// lits are the slots of the plan's constants in Ser, in Ser order:
	// where Rebind writes another statement's literals.
	lits []plan.LitSlot

	code atomic.Pointer[planCode]
}

// planCode is one memoized plan code: InferOpVecs's output on the
// heap, tagged with the generation of the mirror that computed it. The
// tag is a number, not the mirror's address: a cold plan-cache entry
// must not keep a replaced mirror's folded keyword table reachable.
type planCode struct {
	gen uint64
	vec nn.Vec32
}

// Precompute derives the plan-local features of one plan.
func Precompute(n *plan.Node) *PlanFeat {
	tables := n.Tables()
	sort.Strings(tables)
	dedup := tables[:0]
	for i, t := range tables {
		if i == 0 || t != tables[i-1] {
			dedup = append(dedup, t)
		}
	}
	ser, lits := plan.SerializeLits(n)
	return &PlanFeat{
		Ser:    toks(ser),
		Tables: dedup,
		Count:  n.Count(),
		lits:   lits,
	}
}

// errNotRebindable reports a PlanFeat with a constant no literal of the
// statement bound: a plan not built from SQL text, or literals from a
// statement of another template.
var errNotRebindable = errors.New("featenc: plan constants do not match the literals")

// Rebind returns the PlanFeat of a statement with pf's template (see
// sqlparse.Template) whose literals, in lexical order, are lits. pf
// must come from Precompute over the plan of a statement with that
// template. The result is what Precompute returns over that statement's
// plan: a plan's literals reach its features only as the constants'
// tokens (plan.SerializeLits), and Tables, Count and every other token
// follow from the template alone. It shares pf's Tables and every
// operator sequence without a constant, copies the ones with, and has
// an empty code slot. A literal that does not bind (an integer past
// int64) returns plan.LiteralValue's error, as Build would.
func (pf *PlanFeat) Rebind(lits []sqlparse.Literal) (*PlanFeat, error) {
	out := &PlanFeat{Ser: slices.Clone(pf.Ser), Tables: pf.Tables, Count: pf.Count, lits: pf.lits}
	copied := -1 // slots come in Ser order: an operator's are adjacent
	for _, sl := range pf.lits {
		if sl.Ord < 1 || sl.Ord > len(lits) {
			return nil, errNotRebindable
		}
		v, err := plan.LiteralValue(lits[sl.Ord-1])
		if err != nil {
			return nil, err
		}
		if sl.Op != copied {
			out.Ser[sl.Op] = slices.Clone(pf.Ser[sl.Op])
			copied = sl.Op
		}
		out.Ser[sl.Op][sl.Tok] = plan.ConstTok(v)
	}
	return out, nil
}

// Extract gathers features for estimating A(q|v). Table statistics are
// read from the catalog (the paper's metadata database); log scaling keeps
// the magnitudes trainable before normalization. It is the one-shot form
// of (*BatchExtractor).ExtractPre, which holds the extraction loop.
func Extract(q, v *plan.Node, cat *catalog.Catalog) Features {
	return NewBatchExtractor(cat).ExtractPre(Precompute(q), Precompute(v))
}

// Normalizer standardizes numerical features to zero mean and unit
// variance, the wide model's pre-processing step (Section IV-B1).
type Normalizer struct {
	Mean []float64
	Std  []float64
}

// FitNormalizer estimates per-dimension statistics from a training set.
// Dimensions with zero variance get Std 1 so they normalize to 0.
func FitNormalizer(rows [][]float64) *Normalizer {
	if len(rows) == 0 {
		return &Normalizer{Mean: make([]float64, NumericDim), Std: ones(NumericDim)}
	}
	dim := len(rows[0])
	n := &Normalizer{Mean: make([]float64, dim), Std: make([]float64, dim)}
	for _, r := range rows {
		for i, v := range r {
			n.Mean[i] += v
		}
	}
	for i := range n.Mean {
		n.Mean[i] /= float64(len(rows))
	}
	for _, r := range rows {
		for i, v := range r {
			d := v - n.Mean[i]
			n.Std[i] += d * d
		}
	}
	for i := range n.Std {
		n.Std[i] = math.Sqrt(n.Std[i] / float64(len(rows)))
		if n.Std[i] < 1e-9 {
			n.Std[i] = 1
		}
	}
	return n
}

// Apply standardizes one feature vector (out of place).
func (n *Normalizer) Apply(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = (v - n.Mean[i]) / n.Std[i]
	}
	return out
}

func ones(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}
