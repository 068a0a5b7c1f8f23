package storage_test

import (
	"crypto/sha1"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"testing"

	"autoview/internal/storage"
	"autoview/internal/workload"
)

// hashStore writes every table of a store — in catalog order, each row's
// value kinds, integers, float bits and strings, then the table's Bytes —
// to a SHA-1 and returns its hex digest.
func hashStore(w *workload.Workload, st *storage.Store) string {
	h := sha1.New()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, meta := range w.Cat.Tables() {
		t, _ := st.Get(meta.Name)
		io.WriteString(h, meta.Name)
		put(uint64(len(t.Rows)))
		for _, r := range t.Rows {
			put(uint64(len(r)))
			for _, v := range r {
				put(uint64(v.Kind))
				put(uint64(v.I))
				put(math.Float64bits(v.F))
				put(uint64(len(v.S)))
				io.WriteString(h, v.S)
			}
		}
		put(uint64(t.Bytes()))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestPopulateGoldenStores pins the populated JOB, WK1 and WK2 stores —
// every table's rows, value kinds and bytes — to the SHA-1s they hashed
// to when each row was generated as its own allocation, with a fresh
// "v<k>" string per cell. Every cost the engine meters reads these rows,
// so a change to how Generate lays them out must leave the hash alone.
func TestPopulateGoldenStores(t *testing.T) {
	golden := map[string]string{
		"JOB": "4828dabcffb2f004d412486d4b21090c2b14743a",
		"WK1": "8a874f69d2fbf527fd6dd463413d430c13d806c7",
		"WK2": "29951f715cce6bdae5827865a725c6e30b978fb4",
	}
	for _, w := range []*workload.Workload{workload.JOB(), workload.WK1(), workload.WK2()} {
		if got := hashStore(w, w.Populate()); got != golden[w.Name] {
			t.Errorf("%s: store hashes to %s, want %s", w.Name, got, golden[w.Name])
		}
	}
}
