package experiments

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"autoview/internal/costbase"
	"autoview/internal/equiv"
	"autoview/internal/plan"
	"autoview/internal/workload"
)

// TestPairSamplesGolden pins, per quick-scale workload, the sample set
// Table III and the ablation draw their pairs from, before the shuffle:
// the pair order, each pair's query and candidate index, and the bits of
// its Actual, QCost and VCost. JOB's Actual is the metered A(q|v); the
// WK workloads' is RealOpt's A(q) − A(s). A change to how pairs are
// metered must leave every hash where it is.
func TestPairSamplesGolden(t *testing.T) {
	want := map[string]struct {
		pairs int
		hash  uint64
	}{
		"JOB": {310, 0xbd114ca1c277c958},
		"WK1": {175, 0x4852c5afc975e814},
		"WK2": {411, 0x90dba5fd5c24ede2},
	}
	for _, w := range Workloads(Quick) {
		samples, _, err := buildPairs(w, Quick, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := hashSamples(t, w, samples)
		if len(samples) != want[w.Name].pairs || got != want[w.Name].hash {
			t.Errorf("%s: %d pairs, hash %#x; want %d, %#x",
				w.Name, len(samples), got, want[w.Name].pairs, want[w.Name].hash)
		}
	}
}

// hashSamples folds each sample's query index (into w's queries),
// candidate index (into w's pre-processed candidates, by normalized
// fingerprint) and cost bits, in order.
func hashSamples(t *testing.T, w *workload.Workload, samples []costbase.Sample) uint64 {
	t.Helper()
	queryIndex := map[*plan.Node]int{}
	for i, q := range w.Plans() {
		queryIndex[q] = i
	}
	candIndex := map[plan.Fingerprint]int{}
	for j, c := range equiv.Preprocess(w.Plans(), nil).Candidates {
		candIndex[plan.NormalizedFingerprint(c.Plan)] = j
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i, s := range samples {
		qi, ok := queryIndex[s.Q]
		if !ok {
			t.Fatalf("%s: sample %d: Q is not a workload query node", w.Name, i)
		}
		j, ok := candIndex[plan.NormalizedFingerprint(s.V)]
		if !ok {
			t.Fatalf("%s: sample %d: V matches no candidate", w.Name, i)
		}
		put(uint64(i))
		put(uint64(qi))
		put(uint64(j))
		put(math.Float64bits(s.Actual))
		put(math.Float64bits(s.QCost))
		put(math.Float64bits(s.VCost))
	}
	return h.Sum64()
}
