package equiv_test

import (
	"reflect"
	"testing"

	"autoview/internal/equiv"
	"autoview/internal/workload"
)

// TestPreprocessParallelismDeterminism: subqueries are extracted and
// fingerprinted across the workers but join their clusters in query
// order, so the result — cluster IDs, member order, candidates, overlaps
// — is the same at every worker count.
func TestPreprocessParallelismDeterminism(t *testing.T) {
	for _, w := range []*workload.Workload{workload.JOB(), workload.WK1(), workload.WK2()} {
		serial := equiv.Preprocess(w.Plans(), &equiv.Options{Parallelism: 1})
		for _, p := range []int{2, 8} {
			got := equiv.Preprocess(w.Plans(), &equiv.Options{Parallelism: p})
			if !reflect.DeepEqual(got, serial) {
				t.Errorf("%s: Preprocess at Parallelism %d differs from the serial result", w.Name, p)
			}
		}
	}
}
