package main

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autoview/internal/equiv"
	"autoview/internal/plan"
	"autoview/internal/widedeep"
	"autoview/internal/workload"
)

// TestMeasurePairsGolden pins the training pairs of each built-in
// workload: how many there are and, in order, each pair's query index,
// candidate index and the bits of its metered A(q|v).
func TestMeasurePairsGolden(t *testing.T) {
	for _, tc := range []struct {
		workload string
		pairs    int
		hash     uint64
	}{
		{"job", 310, 0x9fd53a91af56b726},
		{"wk1", 607, 0x648aa269f74bd608},
		{"wk2", 1308, 0x511f33eaba103532},
	} {
		w, err := workload.Open(tc.workload, "", "")
		if err != nil {
			t.Fatal(err)
		}
		samples, err := measurePairs(w)
		if err != nil {
			t.Fatal(err)
		}
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
				t.Fatalf("%s: pair %d: Q is not a workload query node", tc.workload, i)
			}
			j, ok := candIndex[plan.NormalizedFingerprint(s.V)]
			if !ok {
				t.Fatalf("%s: pair %d: V matches no candidate", tc.workload, i)
			}
			put(uint64(qi))
			put(uint64(j))
			put(math.Float64bits(s.Actual))
		}
		if len(samples) != tc.pairs || h.Sum64() != tc.hash {
			t.Errorf("%s: %d pairs, hash %#x; want %d, %#x",
				tc.workload, len(samples), h.Sum64(), tc.pairs, tc.hash)
		}
	}
}

// TestPickVariant accepts every widedeep.Variants() label, in any case
// and with or without its hyphen, and rejects an unknown name.
func TestPickVariant(t *testing.T) {
	for label, want := range widedeep.Variants() {
		for _, name := range []string{label, strings.ToLower(label), strings.ReplaceAll(label, "-", "")} {
			got, err := pickVariant(name)
			if err != nil {
				t.Errorf("pickVariant(%q): %v", name, err)
				continue
			}
			if got != want {
				t.Errorf("pickVariant(%q) = %+v, want %+v", name, got, want)
			}
		}
	}
	if _, err := pickVariant("lstm"); err == nil {
		t.Error(`pickVariant("lstm") accepted an unknown variant`)
	}
}

// TestSaveLoadRoundTrip trains on JOB and saves the weights, then runs
// again from the checkpoint: the held-out errors must be the same, and
// the loaded weights must save back to the same bytes. That checkpoint is
// what POST /v1/admin/model loads.
func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	saved, resaved := filepath.Join(dir, "wd.json"), filepath.Join(dir, "again.json")
	heldOut := func(args ...string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run(append([]string{"-workload", "job", "-epochs", "2"}, args...), &out); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "held-out:") {
				return line
			}
		}
		t.Fatalf("no held-out line in:\n%s", out.String())
		return ""
	}
	trained := heldOut("-save", saved)
	if loaded := heldOut("-load", saved, "-save", resaved); loaded != trained {
		t.Errorf("loaded weights score %q, trained ones %q", loaded, trained)
	}
	a, err := os.ReadFile(saved)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(resaved)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("the loaded weights save to other bytes than the checkpoint they came from")
	}
}
