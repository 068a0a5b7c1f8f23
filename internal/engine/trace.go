package engine

import "autoview/internal/plan"

// Trace is the record one execution keeps of its plan: the run's Usage
// and, for every node in preorder, what its subtree metered. A rewrite
// that replaces subtrees by scans of views holding the subtrees' rows
// leaves every other operator the same input rows, hence the same ops
// and allocations, so Compose prices it from the trace alone — the
// decomposition A(q|v) = A(q) − A(s) + A(scan v) the paper writes for
// its DeepLearn baseline (Section VI), exact for metered usage.
type Trace struct {
	Usage Usage
	nodes []nodeTrace
	live  []int64 // live bytes after each allocation of the run, in order
}

// nodeTrace is what one node's subtree metered.
type nodeTrace struct {
	node     *plan.Node
	ops      int64 // the subtree's operations
	start    int64 // live bytes when the subtree started
	from, to int   // the subtree's allocations: live[from:to]
	end      int   // the preorder index past the subtree
	rows     int   // output rows
	bytes    int64 // output bytes
}

// Replacement names a node of a traced plan and the table a rewrite of
// the plan scans in its place.
type Replacement struct {
	Node  *plan.Node
	Table string
}

// Compose returns the Usage of the traced plan with every replacement's
// subtree replaced by a scan of its table: the ops of the plan less each
// subtree's plus each scan's; the peak as the largest live bytes of the
// run outside the replaced subtrees, and of each subtree's start plus
// its table's bytes; OutRows and OutBytes unchanged. It reports false,
// and the caller executes the rewritten plan instead, when that would
// not be the executed usage or it cannot tell: a node the plan holds
// nowhere or twice, two replacements that overlap, a table missing or of
// another width, or one whose row count or bytes differ from its
// subtree's output.
// Composing executes nothing and allocates nothing.
func (e *Executor) Compose(t *Trace, reps []Replacement) (Usage, bool) {
	var buf [8]int
	ks := buf[:0] // each replacement's node, as its preorder index
	u := t.Usage
	for _, r := range reps {
		k := t.find(r.Node)
		if k < 0 {
			return Usage{}, false
		}
		nt := &t.nodes[k]
		for _, j := range ks {
			if j <= k && k < t.nodes[j].end || k <= j && j < nt.end {
				return Usage{}, false
			}
		}
		tbl, err := e.scanTable(r.Table, len(r.Node.Schema))
		if err != nil || len(tbl.Rows) != nt.rows || tbl.Bytes() != nt.bytes {
			return Usage{}, false
		}
		u.CPUOps += scanOps(tbl) - nt.ops
		ks = append(ks, k)
	}
	u.PeakBytes = 0
	for a, live := range t.live {
		if live > u.PeakBytes && !t.inside(ks, a) {
			u.PeakBytes = live
		}
	}
	for _, k := range ks {
		u.PeakBytes = max(u.PeakBytes, t.nodes[k].start+t.nodes[k].bytes)
	}
	return u, true
}

// find returns the preorder index of n in the trace, or -1 when the plan
// holds n nowhere or more than once (a rewrite of a shared node could
// then have replaced either).
func (t *Trace) find(n *plan.Node) int {
	k := -1
	for i := range t.nodes {
		if t.nodes[i].node == n {
			if k >= 0 {
				return -1
			}
			k = i
		}
	}
	return k
}

// inside reports whether allocation a belongs to one of the subtrees ks.
func (t *Trace) inside(ks []int, a int) bool {
	for _, k := range ks {
		if t.nodes[k].from <= a && a < t.nodes[k].to {
			return true
		}
	}
	return false
}
