package core

import (
	"errors"
	"sync"

	"autoview/internal/obs"
	"autoview/internal/plan"
)

// ErrNoCandidates reports that pre-processing found no shareable
// subqueries in the given workload, so there is nothing to select.
// Online callers (the serving layer's re-advise loop) treat it as a
// clean no-op rather than a failure.
var ErrNoCandidates = errors.New("core: no candidate views in workload")

var obsWindowSize = obs.Default.Gauge("core.window.size", "queries currently held by the rolling workload window")

// windowEntry is one held query: the parsed plan the pipeline consumes
// plus the SQL text it was parsed from. The tag exists for durability: a
// persisted window is its SQL list, and re-parsing that list
// reconstructs the plans byte-identically (plan.Parse is deterministic
// over an immutable catalog).
type windowEntry struct {
	q   *plan.Node
	sql string
}

// Window is a bounded rolling workload window: a fixed-capacity ring of
// query plans where appending beyond capacity evicts the oldest entry.
// It is the online system's view of "the current workload" — the
// re-advise loop snapshots it and runs selection over the snapshot.
// All methods are safe for concurrent use.
type Window struct {
	mu    sync.Mutex
	buf   []windowEntry
	next  int  // ring write position
	full  bool // buf has wrapped at least once
	total uint64
}

// NewWindow returns an empty window holding at most capacity queries.
// Capacity must be positive.
func NewWindow(capacity int) *Window {
	if capacity <= 0 {
		capacity = 1
	}
	return &Window{buf: make([]windowEntry, 0, capacity)}
}

// AppendTagged adds queries in order, tagging each with the SQL text it
// was parsed from and evicting the oldest entries once the window is
// full. sqls must be the same length as queries.
func (w *Window) AppendTagged(queries []*plan.Node, sqls []string) {
	if len(queries) != len(sqls) {
		panic("core: AppendTagged length mismatch")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, q := range queries {
		w.push(windowEntry{q: q, sql: sqls[i]})
	}
	obsWindowSize.Set(float64(len(w.buf)))
}

// push appends one entry under w.mu, evicting the oldest at capacity.
func (w *Window) push(e windowEntry) {
	if len(w.buf) < cap(w.buf) {
		w.buf = append(w.buf, e)
	} else {
		w.buf[w.next] = e
		w.next = (w.next + 1) % cap(w.buf)
		w.full = true
	}
	w.total++
}

// Restore replaces the window's contents with the given queries
// (oldest-first) and sets the lifetime total, as when recovering
// persisted state. When more queries than capacity are given only the
// newest capacity entries are kept, exactly as if they had been appended
// in order. sqls must be the same length as queries.
func (w *Window) Restore(queries []*plan.Node, sqls []string, total uint64) {
	if len(queries) != len(sqls) {
		panic("core: Restore length mismatch")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = w.buf[:0]
	w.next = 0
	w.full = false
	w.total = 0
	for i, q := range queries {
		w.push(windowEntry{q: q, sql: sqls[i]})
	}
	w.total = total
	obsWindowSize.Set(float64(len(w.buf)))
}

// Len returns the number of queries currently held.
func (w *Window) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.buf)
}

// Total returns the number of queries ever appended (including evicted
// ones).
func (w *Window) Total() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.total
}

// Snapshot returns the current contents oldest-first. The returned slice
// is a copy; the plans themselves are shared (treated as immutable by
// the pipeline).
func (w *Window) Snapshot() []*plan.Node {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]*plan.Node, 0, len(w.buf))
	for _, e := range w.ordered() {
		out = append(out, e.q)
	}
	return out
}

// SnapshotTagged returns the current contents oldest-first as parallel
// plan and SQL slices (the SQL each entry was tagged with at append
// time). Both slices are copies.
func (w *Window) SnapshotTagged() ([]*plan.Node, []string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	ord := w.ordered()
	plans := make([]*plan.Node, len(ord))
	sqls := make([]string, len(ord))
	for i, e := range ord {
		plans[i] = e.q
		sqls[i] = e.sql
	}
	return plans, sqls
}

// ordered returns the ring contents oldest-first (caller holds w.mu).
// The returned slice aliases w.buf only in the unwrapped case, where the
// buffer is already in order; wrapped reads build a fresh slice.
func (w *Window) ordered() []windowEntry {
	if !w.full {
		return w.buf
	}
	out := make([]windowEntry, 0, len(w.buf))
	out = append(out, w.buf[w.next:]...)
	out = append(out, w.buf[:w.next]...)
	return out
}

// CostScale returns the factor that maps this problem's dollar costs
// into the O(1) magnitudes the W-D model was trained on
// (1/max A(q)). Serving-side callers divide Model predictions by it to
// recover absolute costs, exactly as the pipeline's benefit estimator
// does.
func (p *Problem) CostScale() float64 { return costScale(p.QueryCost) }

// Advise runs the estimate and select stages over an arbitrary query
// set without applying the selection: pre-process, problem assembly
// under the configured estimator, and view selection. It is the
// re-advise entry point for online callers that maintain their own
// rolling window; Run remains the batch pipeline (which also rewrites
// and re-executes the workload). Returns ErrNoCandidates when
// pre-processing yields no shareable subqueries.
func (a *Advisor) Advise(queries []*plan.Node) (*Problem, *Selection, error) {
	if len(queries) == 0 {
		return nil, nil, ErrNoCandidates
	}
	pre := a.Preprocess(queries)
	if len(pre.Candidates) == 0 {
		return nil, nil, ErrNoCandidates
	}
	p, err := a.BuildProblem(queries, pre)
	if err != nil {
		return nil, nil, err
	}
	sel, err := a.Select(p)
	if err != nil {
		return nil, nil, err
	}
	return p, sel, nil
}
