package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"autoview/internal/plan"
)

// tagged builds a distinguishable dummy plan (only pointer identity and
// order matter to the window).
func tagged(i int) *plan.Node {
	return &plan.Node{Op: plan.OpScan, Table: fmt.Sprintf("t%d", i)}
}

// appendOne appends tagged(i) with its SQL tag.
func appendOne(w *Window, i int) {
	w.AppendTagged([]*plan.Node{tagged(i)}, []string{fmt.Sprintf("select %d", i)})
}

func TestWindowAppendSnapshotOrder(t *testing.T) {
	w := NewWindow(4)
	for i := 0; i < 3; i++ {
		appendOne(w, i)
	}
	snap := w.Snapshot()
	if len(snap) != 3 || w.Len() != 3 {
		t.Fatalf("len = %d snapshot = %d", w.Len(), len(snap))
	}
	for i, n := range snap {
		if n.Table != fmt.Sprintf("t%d", i) {
			t.Fatalf("snapshot[%d] = %s", i, n.Table)
		}
	}
}

func TestWindowEvictsOldest(t *testing.T) {
	w := NewWindow(3)
	for i := 0; i < 7; i++ {
		appendOne(w, i)
	}
	snap := w.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("len = %d", len(snap))
	}
	for i, want := range []string{"t4", "t5", "t6"} {
		if snap[i].Table != want {
			t.Fatalf("snapshot[%d] = %s, want %s", i, snap[i].Table, want)
		}
	}
	if w.Total() != 7 {
		t.Fatalf("total = %d", w.Total())
	}
}

func TestWindowConcurrentAppend(t *testing.T) {
	w := NewWindow(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				appendOne(w, g*100+i)
			}
		}(g)
	}
	wg.Wait()
	if w.Total() != 400 {
		t.Fatalf("total = %d", w.Total())
	}
	if w.Len() != 64 {
		t.Fatalf("len = %d", w.Len())
	}
}

// TestWindowCapacityBoundary pins the evict order exactly at the
// capacity boundary: the append that fills the window evicts nothing,
// and the very next append evicts precisely the oldest entry.
func TestWindowCapacityBoundary(t *testing.T) {
	w := NewWindow(3)
	for i := 0; i < 3; i++ {
		appendOne(w, i)
	}
	if got := names(w.Snapshot()); !equalStrings(got, []string{"t0", "t1", "t2"}) {
		t.Fatalf("at capacity: %v", got)
	}
	appendOne(w, 3) // first wrap: exactly t0 leaves
	if got := names(w.Snapshot()); !equalStrings(got, []string{"t1", "t2", "t3"}) {
		t.Fatalf("one past capacity: %v", got)
	}
	appendOne(w, 4)
	if got := names(w.Snapshot()); !equalStrings(got, []string{"t2", "t3", "t4"}) {
		t.Fatalf("two past capacity: %v", got)
	}
	if w.Len() != 3 || w.Total() != 5 {
		t.Fatalf("len = %d total = %d", w.Len(), w.Total())
	}
}

// TestWindowSnapshotMidWrapRestores takes a snapshot while the ring
// write position sits mid-buffer and proves Restore reproduces the
// identical iteration order — including when further appends continue
// to wrap the restored ring.
func TestWindowSnapshotMidWrapRestores(t *testing.T) {
	w := NewWindow(4)
	plans := make([]*plan.Node, 10)
	sqls := make([]string, 10)
	for i := range plans {
		plans[i] = tagged(i)
		sqls[i] = fmt.Sprintf("select %d", i)
	}
	w.AppendTagged(plans[:6], sqls[:6]) // next = 2, mid-wrap
	gotPlans, gotSQL := w.SnapshotTagged()
	if !equalStrings(names(gotPlans), []string{"t2", "t3", "t4", "t5"}) {
		t.Fatalf("mid-wrap snapshot: %v", names(gotPlans))
	}
	if !equalStrings(gotSQL, sqls[2:6]) {
		t.Fatalf("mid-wrap sqls: %v", gotSQL)
	}

	w2 := NewWindow(4)
	w2.Restore(gotPlans, gotSQL, w.Total())
	rePlans, reSQL := w2.SnapshotTagged()
	if !equalStrings(names(rePlans), names(gotPlans)) || !equalStrings(reSQL, gotSQL) {
		t.Fatalf("restore changed order: %v / %v", names(rePlans), reSQL)
	}
	if w2.Total() != 6 || w2.Len() != 4 {
		t.Fatalf("restored total = %d len = %d", w2.Total(), w2.Len())
	}

	// The restored ring must keep evicting in the same order as the
	// original under continued appends.
	w.AppendTagged(plans[6:8], sqls[6:8])
	w2.AppendTagged(plans[6:8], sqls[6:8])
	a, as := w.SnapshotTagged()
	b, bs := w2.SnapshotTagged()
	if !equalStrings(names(a), names(b)) || !equalStrings(as, bs) {
		t.Fatalf("post-restore appends diverge: %v vs %v", names(a), names(b))
	}
}

// TestWindowRestoreOverCapacity keeps only the newest capacity entries,
// exactly as if the list had been appended in order.
func TestWindowRestoreOverCapacity(t *testing.T) {
	w := NewWindow(3)
	plans := make([]*plan.Node, 5)
	sqls := make([]string, 5)
	for i := range plans {
		plans[i] = tagged(i)
		sqls[i] = fmt.Sprintf("q%d", i)
	}
	w.Restore(plans, sqls, 5)
	got, gotSQL := w.SnapshotTagged()
	if !equalStrings(names(got), []string{"t2", "t3", "t4"}) {
		t.Fatalf("over-capacity restore: %v", names(got))
	}
	if !equalStrings(gotSQL, []string{"q2", "q3", "q4"}) {
		t.Fatalf("over-capacity sqls: %v", gotSQL)
	}
	if w.Total() != 5 {
		t.Fatalf("total = %d", w.Total())
	}
}

func names(ns []*plan.Node) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = n.Table
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestAdviseReturnsSelection(t *testing.T) {
	wl := smallWK()
	a := newAdvisor(t, wl, fastConfig())
	p, sel, err := a.Advise(wl.Plans())
	if err != nil {
		t.Fatal(err)
	}
	if p == nil || sel == nil {
		t.Fatal("nil problem or selection")
	}
	if len(sel.Z) != len(p.Candidates) {
		t.Fatalf("selection over %d views, %d candidates", len(sel.Z), len(p.Candidates))
	}
	if scale := p.CostScale(); scale <= 0 {
		t.Fatalf("cost scale %v", scale)
	}
}

func TestAdviseNoCandidates(t *testing.T) {
	wl := smallWK()
	a := newAdvisor(t, wl, fastConfig())
	// A single query cannot share subqueries with anything.
	if _, _, err := a.Advise(wl.Plans()[:1]); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("err = %v, want ErrNoCandidates", err)
	}
	if _, _, err := a.Advise(nil); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("empty: err = %v, want ErrNoCandidates", err)
	}
}
