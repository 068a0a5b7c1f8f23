package plan

// Subquery is one extracted subplan of a query: a candidate for view
// materialization.
type Subquery struct {
	// Root is the subplan node, shared with (not copied from) the owning
	// query's plan tree so occurrences can be located for rewriting.
	Root *Node
	// Fingerprint is the canonical identity of the subplan.
	Fingerprint Fingerprint
	// Depth is the distance from the query root (0 = the root itself).
	Depth int
}

// ExtractSubqueries returns the proper subplans of a query rooted at
// Aggregate, Join or Project operators, per Section III ("for each query,
// we consider subplans, starting with Aggregate, Join or Project, as
// subqueries"). The query root itself is excluded: materializing the whole
// query is view caching, not subquery sharing; this matches the paper's
// Figure 2 where q and its subqueries s1..s3 are distinct.
func ExtractSubqueries(root *Node) []Subquery {
	var out []Subquery
	var visit func(n *Node, depth int)
	visit = func(n *Node, depth int) {
		if depth > 0 && isSubqueryRoot(n.Op) {
			out = append(out, Subquery{
				Root:        n,
				Fingerprint: FingerprintOf(n),
				Depth:       depth,
			})
		}
		for _, c := range n.Children {
			visit(c, depth+1)
		}
	}
	visit(root, 0)
	return out
}

func isSubqueryRoot(op OpType) bool {
	return op == OpAggregate || op == OpJoin || op == OpProject
}

// FindOccurrences returns the nodes in root's tree whose fingerprint equals
// fp, in pre-order. The rewriter replaces these occurrences with view
// scans.
func FindOccurrences(root *Node, fp Fingerprint) []*Node {
	var out []*Node
	root.Walk(func(n *Node) {
		if isSubqueryRoot(n.Op) || n.Op == OpScan {
			if FingerprintOf(n) == fp {
				out = append(out, n)
			}
		}
	})
	return out
}
