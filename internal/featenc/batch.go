package featenc

import (
	"math"

	"autoview/internal/catalog"
)

// BatchExtractor holds the feature-extraction loop and amortizes it
// across the pairs of one request and across requests (Extract is the
// one-shot form: a fresh extractor per call). Two costs are hoisted:
//
//   - Per-table work: catalog.Table.SchemaKeywords allocates a fresh
//     keyword slice on every call and the stats are re-read per pair;
//     the extractor memoizes both per table name (the catalog is
//     immutable while serving, so entries never go stale under one
//     catalog).
//   - Per-pair slices: Numeric and Schema are carved out of grow-only
//     backing arrays instead of individual allocations, so a warm
//     extractor serves whole requests without touching the heap.
//
// Aliasing contract: the Numeric and Schema slices of every Features
// returned since the last Reset share the extractor's backing arrays
// and stay valid only until the next Reset. Callers must not retain
// them past that point (the serving scratch recycles the extractor only
// after its request fully completes). Not safe for concurrent use; pool
// extractors per request like any other scratch.
//
// A reused extractor returns exactly what a fresh one does — only the
// provenance of the buffers differs (pinned by
// TestBatchExtractorMatchesExtractPre).
type BatchExtractor struct {
	cat    *catalog.Catalog
	tables map[string]*tableFeat

	numeric []float64 // backing for Numeric vectors handed out since Reset
	schema  []string  // backing for Schema slices handed out since Reset
}

// tableFeat is the memoized per-table slice of feature extraction.
type tableFeat struct {
	ok       bool // table exists in the catalog
	cols     float64
	rows     float64
	bytes    float64
	keywords []string
}

// NewBatchExtractor returns an extractor bound to cat.
func NewBatchExtractor(cat *catalog.Catalog) *BatchExtractor {
	ex := &BatchExtractor{}
	ex.Reset(cat)
	return ex
}

// Reset invalidates every Features handed out so far and rebinds the
// extractor to cat: the slice backing arrays rewind for reuse, and the
// per-table memo survives unless the catalog actually changed.
func (ex *BatchExtractor) Reset(cat *catalog.Catalog) {
	ex.numeric = ex.numeric[:0]
	ex.schema = ex.schema[:0]
	if cat != ex.cat || ex.tables == nil {
		ex.cat = cat
		ex.tables = make(map[string]*tableFeat)
	}
}

// table returns the memoized per-table features, populating the memo on
// first sight of a name.
func (ex *BatchExtractor) table(name string) *tableFeat {
	if tf, ok := ex.tables[name]; ok {
		return tf
	}
	tf := &tableFeat{}
	if t, ok := ex.cat.Table(name); ok {
		tf.ok = true
		tf.cols = float64(len(t.Columns))
		tf.rows = float64(t.Stats.Rows)
		tf.bytes = float64(t.Stats.Bytes)
		tf.keywords = t.SchemaKeywords()
	}
	ex.tables[name] = tf
	return tf
}

// ExtractPre is Extract over precomputed plan-local features, the form
// used by the serving hot path. It never mutates q or v. See the type
// comment for the aliasing contract on the returned slices.
func (ex *BatchExtractor) ExtractPre(q, v *PlanFeat) Features {
	f := Features{
		QueryPlan: q.Ser,
		ViewPlan:  v.Ser,
		QueryFeat: q,
		ViewFeat:  v,
	}
	// Merge the two sorted table lists: the schema-keyword sequence and
	// the float sums below must visit names in sorted order (map
	// iteration order must never leak into features), and the summation
	// order here matches what sorting the union produces.
	schemaStart := len(ex.schema)
	var numTables, numCols, totalRows, totalBytes, maxRows float64
	qi, vi := 0, 0
	for qi < len(q.Tables) || vi < len(v.Tables) {
		var name string
		switch {
		case vi >= len(v.Tables):
			name = q.Tables[qi]
			qi++
		case qi >= len(q.Tables):
			name = v.Tables[vi]
			vi++
		case q.Tables[qi] < v.Tables[vi]:
			name = q.Tables[qi]
			qi++
		case q.Tables[qi] > v.Tables[vi]:
			name = v.Tables[vi]
			vi++
		default:
			name = q.Tables[qi]
			qi++
			vi++
		}
		t := ex.table(name)
		if !t.ok {
			continue
		}
		numTables++
		numCols += t.cols
		totalRows += t.rows
		totalBytes += t.bytes
		if t.rows > maxRows {
			maxRows = t.rows
		}
		ex.schema = append(ex.schema, t.keywords...)
	}
	if n := len(ex.schema); n > schemaStart {
		// Full-capacity subslice: later appends for the next pair grow
		// past cap and can never scribble over this pair's view.
		f.Schema = ex.schema[schemaStart:n:n]
	}

	n := len(ex.numeric)
	ex.numeric = append(ex.numeric,
		numTables,
		numCols,
		math.Log1p(totalRows),
		math.Log1p(totalBytes),
		math.Log1p(maxRows),
		float64(q.Count),
		float64(v.Count),
		float64(len(f.QueryPlan)-len(f.ViewPlan)),
	)
	f.Numeric = ex.numeric[n : n+NumericDim : n+NumericDim]
	return f
}
