package core

import (
	"reflect"
	"runtime"
	"testing"
)

// TestBringUpMatchesSerialBringUp drives BringUp with the workload's
// parse and Populate's table builds on GOMAXPROCS workers and
// Preprocess's decomposition on as many, against a serial bring-up (one
// of each) over a second copy of the same workload: the pre-process
// result, every table's rows and the catalog statistics Populate
// refreshes must be equal. Under -race it also checks that the workers
// share no unsynchronized state.
func TestBringUpMatchesSerialBringUp(t *testing.T) {
	cfg := fastConfig()
	cfg.Parallelism = runtime.GOMAXPROCS(0)
	w := smallWK()
	adv, pre := BringUp(w, cfg)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ref := smallWK()
	cfg.Parallelism = 1
	serial, want := BringUp(ref, cfg)

	if !reflect.DeepEqual(pre, want) {
		t.Error("BringUp's pre-process result differs from the serial one")
	}
	for _, meta := range ref.Cat.Tables() {
		got, ok := adv.Exec.Store.Get(meta.Name)
		wantRows, _ := serial.Exec.Store.Get(meta.Name)
		if !ok || !reflect.DeepEqual(got.Rows, wantRows.Rows) {
			t.Errorf("table %s: BringUp's rows differ from the serial store's", meta.Name)
		}
		if gm, _ := w.Cat.Table(meta.Name); !reflect.DeepEqual(gm.Stats, meta.Stats) {
			t.Errorf("table %s: stats %+v, want %+v", meta.Name, gm.Stats, meta.Stats)
		}
	}
}
