package rewrite

import "autoview/internal/plan"

// reference is the multi-view rewrite that Rewrite replaced, kept as the
// oracle the differential tests compare against: core.Advisor.Apply's
// orderOutermost (stable sort of the views by the shallowest depth at
// which each matches the query) followed by one sequential
// replaceOccurrences pass per view over the mutating copy.
//
// With memo nil it fingerprints exactly as the old code did — per node,
// per view, per sort comparison. A non-nil memo caches fingerprints by
// node and is dropped whole on every replacement, which changes no
// answer and makes the sweep over whole workloads affordable.
type reference struct {
	memo map[*plan.Node]plan.Fingerprint
}

// ReferenceRewrite exposes the oracle to the external test package.
func ReferenceRewrite(root *plan.Node, views []*View, memoize bool) (*plan.Node, int) {
	r := &reference{}
	if memoize {
		r.memo = make(map[*plan.Node]plan.Fingerprint)
	}
	return r.rewrite(root, views)
}

func (r *reference) fingerprint(n *plan.Node) plan.Fingerprint {
	if r.memo == nil {
		return plan.NormalizedFingerprint(n)
	}
	fp, ok := r.memo[n]
	if !ok {
		fp = plan.NormalizedFingerprint(n)
		r.memo[n] = fp
	}
	return fp
}

func (r *reference) matches(n *plan.Node, v *View) bool {
	return n.Op != plan.OpScan && r.fingerprint(n) == v.Fingerprint
}

func (r *reference) rewrite(root *plan.Node, views []*View) (*plan.Node, int) {
	cp := root.Clone()
	replaced := 0
	for _, v := range r.orderOutermost(views, root) {
		replaced += r.replaceOccurrences(cp, v)
	}
	return cp, replaced
}

func (r *reference) orderOutermost(views []*View, q *plan.Node) []*View {
	depth := func(v *View) int {
		best := 1 << 30
		var walk func(n *plan.Node, d int)
		walk = func(n *plan.Node, d int) {
			if r.matches(n, v) {
				if d < best {
					best = d
				}
				return
			}
			for _, c := range n.Children {
				walk(c, d+1)
			}
		}
		walk(q, 0)
		return best
	}
	out := append([]*View(nil), views...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && depth(out[j]) < depth(out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func (r *reference) replaceOccurrences(n *plan.Node, v *View) int {
	if r.matches(n, v) {
		toViewScan(n, v)
		if r.memo != nil {
			clear(r.memo)
		}
		return 1
	}
	total := 0
	for _, c := range n.Children {
		total += r.replaceOccurrences(c, v)
	}
	return total
}
