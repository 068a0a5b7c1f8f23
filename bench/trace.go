package main

import (
	"sort"
	"time"
)

// Spans of the traced run. They are recorded by the harness around its
// calls into each module's public functions (spans inside the program
// are a later change), kept in memory, and written out with the result.
// Tracing is off in the runs that measure the end-to-end metrics.

// span is one timed call: Parent is the index of the span that caused it
// (-1 for a root), Req groups the spans of one replayed request or job.
type span struct {
	Name   string
	Parent int
	Req    int
	Start  time.Duration // since the tracer started
	End    time.Duration
}

type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its index.
func (t *tracer) start(name string, parent, req int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req, Start: time.Since(t.t0), End: -1})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.End = time.Since(t.t0)
	return s.End - s.Start
}

// time runs fn under a span.
func (t *tracer) time(name string, parent, req int, fn func()) time.Duration {
	id := t.start(name, parent, req)
	fn()
	return t.end(id)
}

// selfTimes returns, per span, its duration minus the part of that
// interval its child spans cover (overlapping children are not counted
// twice).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := time.Duration(0)
		edge := s.Start // everything before edge is already counted
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// durationsOf returns the duration of every span with the given name.
func (t *tracer) durationsOf(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// spanDump is the span list in columnar form, which keeps a result file
// with tens of thousands of spans readable and small.
type spanDump struct {
	Names   []string  `json:"names"`    // distinct span names
	Name    []int     `json:"name"`     // index into Names
	Parent  []int     `json:"parent"`   // span index, -1 for roots
	Req     []int     `json:"req"`      // request or job id
	StartUS []float64 `json:"start_us"` // since the tracer started
	EndUS   []float64 `json:"end_us"`
	SelfUS  []float64 `json:"self_us"`
}

func (t *tracer) dump() *spanDump {
	d := &spanDump{}
	index := map[string]int{}
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		ni, ok := index[s.Name]
		if !ok {
			ni = len(d.Names)
			index[s.Name] = ni
			d.Names = append(d.Names, s.Name)
		}
		d.Name = append(d.Name, ni)
		d.Parent = append(d.Parent, s.Parent)
		d.Req = append(d.Req, s.Req)
		d.StartUS = append(d.StartUS, us(s.Start))
		d.EndUS = append(d.EndUS, us(s.End))
		d.SelfUS = append(d.SelfUS, us(self[i]))
	}
	return d
}

// reconRow is one line of a reconciliation table: a parent time beside
// the sum of the layer times it is made of. Share is what the layers
// leave unattributed; above unattributedLimit the remainder is listed as
// an unmeasured layer. Layers that are spans nested in their parent
// cannot sum to more than it, so there a sum that exceeds the parent by
// more than overshootLimit is a measurement bug and fails the run.
type reconRow struct {
	Table        string             `json:"table"`
	Parent       string             `json:"parent"`
	ParentValue  float64            `json:"parent_value"`
	Unit         string             `json:"unit"`
	Layers       map[string]float64 `json:"layers"`
	LayerSum     float64            `json:"layer_sum"`
	Unattributed float64            `json:"unattributed_share"`
	Verdict      string             `json:"verdict"`
	// SeparateRuns marks a row whose layers were not timed inside the
	// parent but in a second execution of the same work (the viewgen
	// child against its in-process replay, a handler against an outside
	// replay of the public functions it calls). A neighbour on the shared
	// machine that takes a core during only one of the two executions moves
	// such a row by more than the overshoot limit, so it informs and
	// never fails the run.
	SeparateRuns bool `json:"separate_runs,omitempty"`
}

// separate marks row as a comparison of two executions.
func (row reconRow) separate() reconRow {
	row.SeparateRuns = true
	if row.Unattributed < -overshootLimit {
		row.Verdict = "replay slower than its parent: the layers ran a second time, outside it"
	}
	return row
}

// failsRun reports whether the row is a measurement bug: nested layers
// that sum to more than their parent.
func (row reconRow) failsRun() bool {
	return !row.SeparateRuns && row.Unattributed < -overshootLimit
}

const (
	unattributedLimit = 0.2
	overshootLimit    = 0.1
)

func reconcile(table, parent string, parentValue float64, unit string, layers map[string]float64) reconRow {
	row := reconRow{Table: table, Parent: parent, ParentValue: parentValue, Unit: unit, Layers: layers}
	for _, name := range sortedKeys(layers) {
		row.LayerSum += layers[name]
	}
	if parentValue > 0 {
		row.Unattributed = (parentValue - row.LayerSum) / parentValue
	}
	switch {
	case row.Unattributed < -overshootLimit:
		row.Verdict = "measurement bug: the layers sum to more than their parent"
	case row.Unattributed > unattributedLimit:
		row.Verdict = "unmeasured layer: the remainder is not covered by any replay"
	default:
		row.Verdict = "reconciled"
	}
	return row
}
