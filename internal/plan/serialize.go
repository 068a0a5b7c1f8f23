package plan

import "strings"

// Tok is one element of an operator's attribute sequence. Str marks tokens
// that are free-form literals ("strings" in the paper's terminology): they
// are routed through String Encoding, while all other tokens are keywords
// routed through Keyword Embedding (Section IV-B2).
type Tok struct {
	Text string
	Str  bool
}

// OpSeq is one operator's attribute sequence: the first-layer sequence of
// the paper's two-dimensional plan representation (Fig. 4).
type OpSeq []Tok

// Texts returns the raw token texts.
func (s OpSeq) Texts() []string {
	out := make([]string, len(s))
	for i, t := range s {
		out[i] = t.Text
	}
	return out
}

// String renders the sequence in Figure 4 style: "[Filter, AND, EQ, dt,
// '1010', EQ, memo_type, 'pen']".
func (s OpSeq) String() string {
	return "[" + strings.Join(s.Texts(), ", ") + "]"
}

// Serialize renders a plan subtree as its second-layer sequence: a
// pre-order list of operator attribute sequences, exactly the
// representation fed to the plan sequence encoder.
func Serialize(n *Node) []OpSeq {
	cnt := 0
	n.Walk(func(*Node) { cnt++ })
	out := make([]OpSeq, 0, cnt)
	n.Walk(func(m *Node) {
		out = append(out, serializeOp(m))
	})
	return out
}

// serializeOp builds one operator's attribute sequence. Each case sizes
// its sequence exactly before appending, so serialization performs one
// allocation per operator — it is the dominant allocator on the serving
// cold path (see PERFORMANCE.md).
func serializeOp(n *Node) OpSeq {
	switch n.Op {
	case OpScan:
		return OpSeq{{Text: "Scan"}, {Text: n.Table}}
	case OpFilter:
		seq := make(OpSeq, 0, 1+predTokenCount(n.Pred))
		seq = append(seq, Tok{Text: "Filter"})
		return appendPredTokens(seq, n.Pred, n.Child(0).Schema)
	case OpProject:
		seq := make(OpSeq, 0, 1+len(n.Proj))
		seq = append(seq, Tok{Text: "Project"})
		for _, pc := range n.Proj {
			seq = append(seq, Tok{Text: pc.Name})
		}
		return seq
	case OpJoin:
		seq := make(OpSeq, 0, 2+3*len(n.JoinCond)+1)
		seq = append(seq, Tok{Text: "Join"})
		ls, rs := n.Child(0).Schema, n.Child(1).Schema
		if len(n.JoinCond) > 1 {
			seq = append(seq, Tok{Text: "AND"})
		}
		for _, je := range n.JoinCond {
			seq = append(seq,
				Tok{Text: "EQ"},
				Tok{Text: ls[je.Left].Name},
				Tok{Text: rs[je.Right].Name})
		}
		seq = append(seq, Tok{Text: n.JoinType.String()})
		return seq
	case OpAggregate:
		seq := make(OpSeq, 0, 1+len(n.GroupBy)+2*len(n.Aggs))
		seq = append(seq, Tok{Text: "Aggregate"})
		cs := n.Child(0).Schema
		for _, g := range n.GroupBy {
			seq = append(seq, Tok{Text: cs[g].Name})
		}
		for _, a := range n.Aggs {
			seq = append(seq, Tok{Text: a.Name}, Tok{Text: a.Func.String()})
		}
		return seq
	default:
		return OpSeq{{Text: n.Op.String()}}
	}
}
