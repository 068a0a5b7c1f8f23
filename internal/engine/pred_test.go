package engine

import (
	"math"
	"math/rand"
	"testing"

	"autoview/internal/plan"
	"autoview/internal/storage"
)

// predValues are the operands the predicate fuzzer draws from: integers
// past 2^53 (where AsFloat rounds), ±0, NaN, ±Inf, and strings that
// compare equal to, before and after one another.
var predValues = []storage.Value{
	storage.Int(0), storage.Int(-1), storage.Int(1), storage.Int(7),
	storage.Int(1 << 53), storage.Int(1<<53 + 1), storage.Int(math.MaxInt64), storage.Int(math.MinInt64),
	storage.Float(0), storage.Float(math.Copysign(0, -1)), storage.Float(0.5), storage.Float(1),
	storage.Float(7), storage.Float(1 << 53), storage.Float(math.NaN()),
	storage.Float(math.Inf(1)), storage.Float(math.Inf(-1)), storage.Float(-1e300),
	storage.Str(""), storage.Str("a"), storage.Str("ab"), storage.Str("b"), storage.Str("v1"),
}

// predDecoder turns fuzz bytes into predicates and rows; past the end
// of its input it reads zeros.
type predDecoder struct{ b []byte }

func (d *predDecoder) next() int {
	if len(d.b) == 0 {
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return int(c)
}

const predCols = 4

func (d *predDecoder) value() storage.Value { return predValues[d.next()%len(predValues)] }

func (d *predDecoder) operand() plan.Operand {
	if c := d.next(); c%2 == 0 {
		return plan.ColOperand(c / 2 % predCols)
	}
	return plan.Operand{Const: d.value()}
}

// pred decodes a comparison, or below the depth limit an AND or OR of
// two predicates. Comparison operators include one past CmpGe, which
// Eval answers false.
func (d *predDecoder) pred(depth int) plan.Pred {
	switch c := d.next(); {
	case depth < 4 && c%4 == 1:
		return &plan.Bool{Op: plan.BoolAnd, L: d.pred(depth + 1), R: d.pred(depth + 1)}
	case depth < 4 && c%4 == 2:
		return &plan.Bool{Op: plan.BoolOr, L: d.pred(depth + 1), R: d.pred(depth + 1)}
	default:
		return &plan.Cmp{Op: plan.CmpOp(d.next() % 7), L: d.operand(), R: d.operand()}
	}
}

func (d *predDecoder) row() storage.Row {
	r := make(storage.Row, predCols)
	for i := range r {
		r[i] = d.value()
	}
	return r
}

// FuzzFilterPredicate holds the compiled predicate a Filter runs to
// Pred.Eval, its oracle: on rows mixing ints, floats and strings, with
// nested AND/OR over column–column and column–constant comparisons with
// the constant on either side, both must give the same answer after the
// same number of comparisons.
func FuzzFilterPredicate(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3})
	f.Add([]byte{1, 2, 2, 0, 5, 0, 14, 2, 3, 3, 9, 1, 4, 18, 7, 6, 2, 3, 20, 13, 15})
	f.Add([]byte{2, 1, 0, 4, 1, 5, 3, 2, 11, 6, 22, 0, 4, 1, 1, 0, 9, 16, 2, 14, 10, 8, 19, 21})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &predDecoder{b: data}
		p := d.pred(0)
		compiled := compilePred(p)
		for range 4 {
			row := d.row()
			got, gotN := compiled(row)
			want, wantN := p.Eval(row)
			if got != want || gotN != wantN {
				t.Fatalf("%s on %v: compiled (%v, %d), Eval (%v, %d)",
					plan.PredString(p, predSchema), row, got, gotN, want, wantN)
			}
		}
	})
}

var predSchema = []plan.ColInfo{{Name: "c0"}, {Name: "c1"}, {Name: "c2"}, {Name: "c3"}}

// TestCompiledPredMatchesEval runs every comparison operator, with every
// pair of fuzzer values on each side and column against column, and
// 5,000 nested predicates decoded from seeded random bytes through the
// compiled predicate and Pred.Eval.
func TestCompiledPredMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for range 5000 {
		data := make([]byte, 64)
		rng.Read(data)
		d := &predDecoder{b: data}
		p := d.pred(0)
		row := d.row()
		got, gotN := compilePred(p)(row)
		want, wantN := p.Eval(row)
		if got != want || gotN != wantN {
			t.Fatalf("%s on %v: compiled (%v, %d), Eval (%v, %d)",
				plan.PredString(p, predSchema), row, got, gotN, want, wantN)
		}
	}
	for op := plan.CmpOp(0); op < 7; op++ {
		for _, a := range predValues {
			for _, b := range predValues {
				row := storage.Row{a, b}
				for _, p := range []*plan.Cmp{
					{Op: op, L: plan.ColOperand(0), R: plan.Operand{Const: b}},
					{Op: op, L: plan.Operand{Const: a}, R: plan.ColOperand(1)},
					{Op: op, L: plan.ColOperand(0), R: plan.ColOperand(1)},
					{Op: op, L: plan.Operand{Const: a}, R: plan.Operand{Const: b}},
				} {
					got, gotN := compilePred(p)(row)
					want, wantN := p.Eval(row)
					if got != want || gotN != wantN {
						t.Fatalf("%s on %v: compiled (%v, %d), Eval (%v, %d)",
							plan.PredString(p, predSchema), row, got, gotN, want, wantN)
					}
				}
			}
		}
	}
}
