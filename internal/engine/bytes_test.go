package engine

import (
	"fmt"
	"hash/fnv"
	"io"
	"testing"

	"autoview/internal/plan"
	"autoview/internal/storage"
	"autoview/internal/workload"
)

// walkBytes is the row walk Result.Bytes ran on every call before the
// operators summed their sizes as they built their rows: the oracle
// those sums must equal.
func walkBytes(rows []storage.Row) int64 {
	var total int64
	for _, r := range rows {
		total += int64(r.Width())
	}
	return total
}

// TestUsageMatchesRowWalk executes every node of every query plan of
// wk1, WK2 and JOB as a plan of its own — which covers every subquery,
// so every candidate view — and requires each result's Bytes, and its
// Usage.OutBytes, to equal the row walk over its rows and each scanned
// table's Bytes to equal the walk over the table. The meter reads sizes
// only through those, so every Usage is the one the walk metered; an
// FNV-64a hash of all of them, in plan order, must also equal the hash
// the walking Bytes produced. Each node is also traced, its operators'
// output in memory earlier traces used, and the traced Usage must be
// the executed one. -short runs JOB only.
func TestUsageMatchesRowWalk(t *testing.T) {
	golden := map[string]string{"WK1": "413de9cd15b5b855", "WK2": "ba9b082dcbdc48c4", "JOB": "48db1bb46825ea59"}
	ws := []*workload.Workload{workload.JOB()}
	if !testing.Short() {
		ws = append(ws, workload.WK1(), workload.WK2())
	}
	for _, w := range ws {
		store := w.Populate()
		h := fnv.New64a()
		nodes := 0
		for _, q := range w.Plans() {
			nodes += checkBytesMatchWalk(t, w.Name, store, q, h)
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != golden[w.Name] {
			t.Errorf("%s: usage hash over %d nodes %s, want %s", w.Name, nodes, got, golden[w.Name])
		}
	}
}

// checkBytesMatchWalk executes every node of plan q as a plan of its
// own on store, requires its Bytes and Usage.OutBytes (and a scanned
// table's Bytes) to equal the row walk, writes each Usage to h, and
// returns the number of nodes.
func checkBytesMatchWalk(t *testing.T, ctx string, store *storage.Store, q *plan.Node, h io.Writer) int {
	t.Helper()
	e := New(store)
	nodes := 0
	q.Walk(func(n *plan.Node) {
		if n.Op == plan.OpScan {
			tbl, _ := store.Get(n.Table)
			if got, want := tbl.Bytes(), walkBytes(tbl.Rows); got != want {
				t.Fatalf("%s: table %s: Bytes %d, row walk %d", ctx, n.Table, got, want)
			}
		}
		res, u, err := e.Execute(n)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		want := walkBytes(res.Rows)
		if res.Bytes() != want || u.OutBytes != want {
			t.Fatalf("%s: %v node: Bytes %d, OutBytes %d, row walk %d", ctx, n.Op, res.Bytes(), u.OutBytes, want)
		}
		tr, err := e.Trace(n)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		if tr.Usage != u {
			t.Fatalf("%s: %v node: traced usage %+v, executed %+v", ctx, n.Op, tr.Usage, u)
		}
		fmt.Fprintf(h, "%d %d %d %d\n", u.CPUOps, u.PeakBytes, u.OutRows, u.OutBytes)
		nodes++
	})
	return nodes
}

// TestLeftJoinBytesMatchRowWalk: the workloads have no LEFT JOIN, so the
// padded rows' sizes are checked on the fixture, whose unmatched order
// pads a string column.
func TestLeftJoinBytesMatchRowWalk(t *testing.T) {
	cat, st := fixture(t)
	q, err := plan.Parse("select o.uid, u.city from orders o left join users u on o.uid = u.id", cat)
	if err != nil {
		t.Fatal(err)
	}
	checkBytesMatchWalk(t, "left join", st, q, io.Discard)
}
