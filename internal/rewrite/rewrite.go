// Package rewrite materializes views on subquery plans and rewrites query
// plans to scan those views instead of recomputing the subqueries — the
// "query engine" responsibilities the paper's system relies on (Fig. 3:
// materialized views feed the query engine which executes the rewritten
// workload).
package rewrite

import (
	"fmt"
	"math"
	"sort"

	"autoview/internal/catalog"
	"autoview/internal/engine"
	"autoview/internal/plan"
	"autoview/internal/storage"
)

// View is a materialized view built on a subquery.
type View struct {
	ID          string
	Fingerprint plan.Fingerprint
	// Plan is the subquery plan the view was built on.
	Plan *plan.Node
	// TableName is the backing table in the store.
	TableName string
	// Meta is the backing table's schema (not registered in the user
	// catalog: views live in their own namespace).
	Meta *catalog.Table
	// BuildUsage is the metered cost of computing the view's contents;
	// together with the stored bytes it determines the overhead O_vs
	// (Definition 3).
	BuildUsage engine.Usage
}

// Overhead returns O_vs = Aα(vs) + A_{β,γ}(s) under the pricing
// (Definition 3).
func (v *View) Overhead(p engine.Pricing) float64 {
	return v.BuildUsage.TotalViewOverhead(p)
}

// Manager materializes and drops views against a store.
type Manager struct {
	Store *storage.Store
	Exec  *engine.Executor

	views map[plan.Fingerprint]*View
	seq   int
}

// NewManager returns a manager over the store.
func NewManager(store *storage.Store) *Manager {
	return &Manager{
		Store: store,
		Exec:  engine.New(store),
		views: make(map[plan.Fingerprint]*View),
	}
}

// Materialize executes the subquery plan and stores its result as a view.
// Views are keyed by normalized fingerprint, so materializing an
// equivalent subquery returns the existing view.
func (m *Manager) Materialize(sub *plan.Node) (*View, error) {
	fp := plan.NormalizedFingerprint(sub)
	if v, ok := m.views[fp]; ok {
		return v, nil
	}
	res, usage, err := m.Exec.Execute(sub)
	if err != nil {
		return nil, fmt.Errorf("rewrite: materialize: %w", err)
	}
	m.seq++
	name := fmt.Sprintf("mv_%d", m.seq)
	meta := &catalog.Table{
		Name:    name,
		Columns: viewColumns(res.Schema),
		Stats: catalog.TableStats{
			Rows:    len(res.Rows),
			Bytes:   res.Bytes(),
			NumCols: len(res.Schema),
		},
	}
	tbl := storage.NewTable(meta)
	tbl.Rows = res.Rows
	m.Store.Put(tbl)
	v := &View{
		ID:          name,
		Fingerprint: fp,
		Plan:        sub.Clone(),
		TableName:   name,
		Meta:        meta,
		BuildUsage:  usage,
	}
	m.views[fp] = v
	return v, nil
}

// viewColumns derives catalog columns from a plan schema, disambiguating
// duplicate names (a join output can expose the same column name twice).
func viewColumns(schema []plan.ColInfo) []catalog.Column {
	seen := make(map[string]int, len(schema))
	cols := make([]catalog.Column, len(schema))
	for i, c := range schema {
		name := c.Name
		if n := seen[name]; n > 0 {
			name = fmt.Sprintf("%s_%d", name, n+1)
		}
		seen[c.Name]++
		cols[i] = catalog.Column{Name: name, Type: c.Type, Distinct: 0}
	}
	return cols
}

// Drop removes a view's backing table.
func (m *Manager) Drop(v *View) {
	m.Store.Drop(v.TableName)
	delete(m.views, v.Fingerprint)
}

// View returns the managed view for a fingerprint.
func (m *Manager) View(fp plan.Fingerprint) (*View, bool) {
	v, ok := m.views[fp]
	return v, ok
}

// Views returns all managed views in fingerprint order, so callers that
// iterate the result (rewrite passes, reports) stay deterministic.
func (m *Manager) Views() []*View {
	out := make([]*View, 0, len(m.views))
	for _, v := range m.views {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Fingerprint < out[j].Fingerprint })
	return out
}

// occurrence is a node of the plan being rewritten whose normalized
// fingerprint is a view's.
type occurrence struct {
	node   *plan.Node
	view   int // index into Rewrite's views
	depth  int // distance from the root
	parent int // nearest enclosing occurrence, -1 at the top
	// replaced: now a scan of its view. spoiled: a replacement was made
	// beneath it. A view plan never scans an mv_* table, so a spoiled
	// subtree matches no view any more.
	replaced, spoiled bool
}

// Rewrite returns a copy of root where occurrences of the views'
// subqueries are replaced by scans of the views' backing tables, plus the
// number of replacements. Occurrences match on normalized fingerprints,
// so a query that spells the subquery in a different but equivalent form
// (stacked filters, redundant projections, commuted joins) is rewritten
// too; normalization preserves the root's output schema, so the in-place
// replacement stays type- and position-correct.
//
// Views are applied outermost first: in stable order of the shallowest
// depth at which each matches root, each replacing every occurrence that
// is still intact — neither inside an earlier replacement nor around one.
// Each node is fingerprinted at most once and looked up in a map, so views
// that match nowhere cost a map entry each and nothing per node.
func Rewrite(root *plan.Node, views []*View) (*plan.Node, int) {
	cp := root.Clone()
	first := make(map[plan.Fingerprint]int, len(views))
	for i := len(views) - 1; i >= 0; i-- {
		first[views[i].Fingerprint] = i // of equal views the first applies
	}
	var occ []occurrence
	// find appends the occurrences under n, ancestors before descendants;
	// unless deep, it does not look beneath an occurrence.
	var find func(n *plan.Node, depth, parent int, deep bool)
	find = func(n *plan.Node, depth, parent int, deep bool) {
		if n.Op == plan.OpScan {
			return // a base table or a view: nothing to replace
		}
		if v, ok := first[plan.NormalizedFingerprint(n)]; ok {
			occ = append(occ, occurrence{node: n, view: v, depth: depth, parent: parent})
			if !deep {
				return
			}
			parent = len(occ) - 1
		}
		for _, c := range n.Children {
			find(c, depth+1, parent, deep)
		}
	}
	find(cp, 0, -1, false)

	// When one view owns every topmost occurrence, whatever else matches
	// lies beneath it, is ordered after it and disappears with it.
	mixed := false
	for _, o := range occ {
		mixed = mixed || o.view != occ[0].view
	}
	if !mixed {
		for _, o := range occ {
			toViewScan(o.node, views[o.view])
		}
		return cp, len(occ)
	}

	// Otherwise a view ordered earlier may match inside a topmost
	// occurrence of a later one and spoil it: look beneath them too.
	for k, top := 0, len(occ); k < top; k++ {
		for _, c := range occ[k].node.Children {
			find(c, occ[k].depth+1, k, true)
		}
	}
	shallowest := func(view int) int {
		d := math.MaxInt
		for _, o := range occ {
			if o.view == view && o.depth < d {
				d = o.depth
			}
		}
		return d
	}
	order := make([]int, len(occ))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		va, vb := occ[order[a]].view, occ[order[b]].view
		if da, db := shallowest(va), shallowest(vb); da != db {
			return da < db
		}
		return va < vb
	})
	replaced := 0
	for _, i := range order {
		gone := occ[i].spoiled
		for p := occ[i].parent; p >= 0 && !gone; p = occ[p].parent {
			gone = occ[p].replaced
		}
		if gone {
			continue
		}
		toViewScan(occ[i].node, views[occ[i].view])
		occ[i].replaced = true
		for p := occ[i].parent; p >= 0; p = occ[p].parent {
			occ[p].spoiled = true
		}
		replaced++
	}
	return cp, replaced
}

// toViewScan mutates n in place into a scan of the view's table. The
// original output schema is preserved so parent column indices stay valid.
func toViewScan(n *plan.Node, v *View) {
	schema := n.Schema
	*n = plan.Node{Op: plan.OpScan, Table: v.TableName, Schema: schema}
}

// Benefit measures B(q,vs) = A(q) - A(q|vs) by executing both the original
// and the rewritten plan (Definition 4). It returns the benefit in dollars
// together with both usages. If the view does not occur in q, the benefit
// is zero and rewritten usage equals the original.
func Benefit(exec *engine.Executor, root *plan.Node, v *View, p engine.Pricing) (float64, engine.Usage, engine.Usage, error) {
	origUsage, err := exec.Cost(root)
	if err != nil {
		return 0, engine.Usage{}, engine.Usage{}, err
	}
	rewritten, nrepl := Rewrite(root, []*View{v})
	if nrepl == 0 {
		return 0, origUsage, origUsage, nil
	}
	rwUsage, err := exec.Cost(rewritten)
	if err != nil {
		return 0, engine.Usage{}, engine.Usage{}, err
	}
	return origUsage.Cost(p) - rwUsage.Cost(p), origUsage, rwUsage, nil
}
