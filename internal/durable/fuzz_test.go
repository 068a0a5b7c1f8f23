package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// fuzzRecord is one decoded record captured during a scan.
type fuzzRecord struct {
	t       RecordType
	payload []byte
}

// collectScan runs scanSegment over data, collecting every intact record.
func collectScan(data []byte) (recs []fuzzRecord, consumed int, clean bool, err error) {
	consumed, clean, err = scanSegment(data, func(t RecordType, payload []byte) error {
		recs = append(recs, fuzzRecord{t: t, payload: append([]byte(nil), payload...)})
		return nil
	})
	return recs, consumed, clean, err
}

// FuzzWALDecode throws arbitrary bytes at the segment decoder and checks
// its structural contract: never panic, never read past the data, report
// either a clean scan, a torn tail whose truncation point rescans
// cleanly to the identical records, or a structured ErrBadSegment.
func FuzzWALDecode(f *testing.F) {
	// Seed with a real log file: a store's scripted session, read back
	// from disk, so the corpus starts from genuinely valid frames.
	dir := f.TempDir()
	if err := runCrashScript(dir); err != nil {
		f.Fatal(err)
	}
	segs, err := listByLSN(dir, parseSegmentName)
	if err != nil || len(segs) == 0 {
		f.Fatalf("no seed segments (err %v)", err)
	}
	for _, first := range segs {
		data, err := os.ReadFile(filepath.Join(dir, segmentName(first)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)-3]) // torn tail
		if len(data) > headerSize+4 {
			mut := append([]byte(nil), data...)
			mut[headerSize+4] ^= 0xff // corrupt first record
			f.Add(mut)
		}
	}
	f.Add([]byte{})
	f.Add(appendHeader(nil))
	f.Add([]byte("AVWL")) // magic but no version
	f.Add(appendFrame(appendHeader(nil), RecordIngest, []byte(`{"sqls":["q"]}`)))
	// Unknown types decode as the torn tail: 200, and format 1's model
	// (2) and view-set (3) records, which format 2 no longer reads.
	for _, t := range []RecordType{200, 2, 3} {
		seg := appendFrame(appendHeader(nil), t, []byte(`{"version":1}`))
		if _, consumed, clean, err := collectScan(seg); err != nil || clean || consumed != headerSize {
			f.Fatalf("type %d: consumed=%d clean=%v err=%v, want a torn tail right after the header", t, consumed, clean, err)
		}
		f.Add(seg)
	}
	f.Add(append(appendHeader(nil), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1)) // absurd length prefix
	f.Add(appendFrame(appendHeader(nil), RecordGeneration,
		[]byte(`{"model":{"path":"model-v1.ckpt","scale":1.5,"version":1},"view_set":{"version":1}}`)))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, consumed, clean, err := collectScan(data)
		if err != nil {
			// The only structured failure the scan itself produces is a
			// bad header; the collector never errors.
			if !errors.Is(err, ErrBadSegment) {
				t.Fatalf("err = %v, want ErrBadSegment", err)
			}
			if consumed != 0 || clean || len(recs) != 0 {
				t.Fatalf("bad header yielded consumed=%d clean=%v recs=%d", consumed, clean, len(recs))
			}
			return
		}
		if consumed < headerSize || consumed > len(data) {
			t.Fatalf("consumed %d out of range [%d, %d]", consumed, headerSize, len(data))
		}
		if clean != (consumed == len(data)) {
			t.Fatalf("clean=%v but consumed %d of %d", clean, consumed, len(data))
		}
		// Truncating at the reported point must rescan cleanly to the
		// exact same records — that is what recovery relies on when it
		// cuts a torn tail.
		recs2, consumed2, clean2, err2 := collectScan(data[:consumed])
		if err2 != nil || !clean2 || consumed2 != consumed {
			t.Fatalf("rescan of truncation point: consumed=%d clean=%v err=%v", consumed2, clean2, err2)
		}
		if len(recs2) != len(recs) {
			t.Fatalf("rescan yielded %d records, want %d", len(recs2), len(recs))
		}
		for i := range recs {
			if recs2[i].t != recs[i].t || !bytes.Equal(recs2[i].payload, recs[i].payload) {
				t.Fatalf("rescan record %d diverged", i)
			}
		}
	})
}
