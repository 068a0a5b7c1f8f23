// Package storage provides the in-memory table representation the executor
// runs over: typed values, rows, and row-oriented tables with deterministic
// synthetic data generation.
package storage

import (
	"fmt"
	"strconv"

	"autoview/internal/catalog"
)

// Value is a dynamically typed scalar. The zero Value is the integer 0.
// A concrete struct (rather than interface{}) keeps rows compact and
// comparable without allocation.
type Value struct {
	Kind catalog.ColType
	I    int64
	F    float64
	S    string
}

// Int builds an integer value.
func Int(v int64) Value { return Value{Kind: catalog.TypeInt, I: v} }

// Float builds a float value.
func Float(v float64) Value { return Value{Kind: catalog.TypeFloat, F: v} }

// Str builds a string value.
func Str(v string) Value { return Value{Kind: catalog.TypeString, S: v} }

// String renders the value as SQL-ish text.
func (v Value) String() string {
	switch v.Kind {
	case catalog.TypeInt:
		return strconv.FormatInt(v.I, 10)
	case catalog.TypeFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case catalog.TypeString:
		return "'" + v.S + "'"
	default:
		return fmt.Sprintf("Value(kind=%d)", int(v.Kind))
	}
}

// AsFloat converts numeric values to float64 (strings convert to 0; callers
// must type-check first when it matters).
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case catalog.TypeInt:
		return float64(v.I)
	case catalog.TypeFloat:
		return v.F
	default:
		return 0
	}
}

// Equal reports deep equality with numeric coercion between Int and Float.
func (v Value) Equal(o Value) bool {
	if v.Kind == catalog.TypeString || o.Kind == catalog.TypeString {
		return v.Kind == o.Kind && v.S == o.S
	}
	return v.AsFloat() == o.AsFloat() //lint:allow floateq SQL value equality is exact by definition
}

// Compare returns -1, 0, or +1. String compares lexicographically with
// strings ordered after all numbers (a total order for sorting; mixed-type
// comparisons do not occur in well-typed plans).
func (v Value) Compare(o Value) int {
	vs, os := v.Kind == catalog.TypeString, o.Kind == catalog.TypeString
	switch {
	case vs && os:
		switch {
		case v.S < o.S:
			return -1
		case v.S > o.S:
			return 1
		}
		return 0
	case vs:
		return 1
	case os:
		return -1
	}
	a, b := v.AsFloat(), o.AsFloat()
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// Width returns the nominal byte width of the value for memory accounting.
func (v Value) Width() int {
	if v.Kind == catalog.TypeString {
		return 16 + len(v.S)
	}
	return 8
}

// Row is one tuple.
type Row []Value

// Width is the nominal byte width of the row.
func (r Row) Width() int {
	w := 0
	for _, v := range r {
		w += v.Width()
	}
	return w
}
