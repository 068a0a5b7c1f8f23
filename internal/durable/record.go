package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// RecordType tags a WAL record's payload.
type RecordType uint8

const (
	// RecordIngest carries a batch of ingested query SQL texts
	// (payload: ingestPayload JSON).
	RecordIngest RecordType = 1
	// RecordModel and RecordViewSet are the two halves of a generation
	// as earlier builds logged them: a model swap (payload: ModelRecord
	// JSON) and a view-set rotation (payload: the serving layer's ViewSet
	// JSON). Recovery still reads them; nothing writes them.
	RecordModel   RecordType = 2
	RecordViewSet RecordType = 3
	// RecordGeneration marks one published generation (payload:
	// GenerationRecord JSON).
	RecordGeneration RecordType = 4
)

func (t RecordType) valid() bool { return t >= RecordIngest && t <= RecordGeneration }

// Segment header: 4-byte magic, 1-byte format version, 3 reserved zero
// bytes. Replay rejects unknown versions loudly instead of guessing.
var segmentMagic = [4]byte{'A', 'V', 'W', 'L'}

const (
	walFormatVersion = 1
	headerSize       = 8
	// frameOverhead is the fixed cost per record: u32 length (of
	// type+payload) + u32 CRC32C (over type+payload).
	frameOverhead = 8
	// maxRecordLen bounds a single record (64 MiB); longer lengths in a
	// frame header mean corruption, not a huge record.
	maxRecordLen = 64 << 20
)

// crcTable is the Castagnoli polynomial (hardware-accelerated CRC32C).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

var (
	// errTornRecord reports a frame that does not checksum or extend
	// past the data: the expected shape of a crash mid-append.
	errTornRecord = errors.New("durable: torn or corrupt record")
	// ErrBadSegment reports a segment whose header is missing or from
	// an unknown format version.
	ErrBadSegment = errors.New("durable: bad WAL segment header")
	// ErrGap reports records missing between segments — real corruption
	// (a torn tail can only be at the end of the newest segment).
	ErrGap = errors.New("durable: gap in WAL record sequence")
)

// appendHeader appends a fresh segment header to buf.
func appendHeader(buf []byte) []byte {
	buf = append(buf, segmentMagic[:]...)
	return append(buf, walFormatVersion, 0, 0, 0)
}

// checkHeader validates a segment's first headerSize bytes.
func checkHeader(data []byte) error {
	if len(data) < headerSize {
		return fmt.Errorf("%w: %d-byte file", ErrBadSegment, len(data))
	}
	if [4]byte(data[:4]) != segmentMagic {
		return fmt.Errorf("%w: bad magic %q", ErrBadSegment, data[:4])
	}
	if v := data[4]; v != walFormatVersion {
		return fmt.Errorf("%w: format version %d (this build reads %d)", ErrBadSegment, v, walFormatVersion)
	}
	return nil
}

// appendFrame appends one framed record to buf:
// [u32 len(type+payload)][u32 crc32c(type+payload)][type][payload].
func appendFrame(buf []byte, t RecordType, payload []byte) []byte {
	n := 1 + len(payload)
	var hdr [frameOverhead]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(n))
	crc := crc32.Update(0, crcTable, []byte{byte(t)})
	crc = crc32.Update(crc, crcTable, payload)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	buf = append(buf, hdr[:]...)
	buf = append(buf, byte(t))
	return append(buf, payload...)
}

// decodeFrame parses the first frame of data. It returns the record and
// the total bytes consumed, or errTornRecord when the frame is
// incomplete, fails its checksum, or carries an unknown type — all of
// which replay treats as the torn tail.
func decodeFrame(data []byte) (t RecordType, payload []byte, consumed int, err error) {
	if len(data) < frameOverhead+1 {
		return 0, nil, 0, errTornRecord
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	if n < 1 || n > maxRecordLen || uint64(frameOverhead)+uint64(n) > uint64(len(data)) {
		return 0, nil, 0, errTornRecord
	}
	body := data[frameOverhead : frameOverhead+int(n)]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(data[4:8]) {
		return 0, nil, 0, errTornRecord
	}
	t = RecordType(body[0])
	if !t.valid() {
		return 0, nil, 0, errTornRecord
	}
	return t, body[1:], frameOverhead + int(n), nil
}

// scanSegment walks a segment's records after its header, calling fn for
// each intact one. It returns the byte offset just past the last intact
// record (the truncation point for a torn tail) and whether the segment
// ended cleanly (no trailing bytes past the last intact record). A bad
// header fails with ErrBadSegment; fn errors abort the scan.
func scanSegment(data []byte, fn func(t RecordType, payload []byte) error) (consumed int, clean bool, err error) {
	if err := checkHeader(data); err != nil {
		return 0, false, err
	}
	off := headerSize
	for off < len(data) {
		t, payload, n, err := decodeFrame(data[off:])
		if err != nil {
			return off, false, nil // torn tail starts here
		}
		if fn != nil {
			if err := fn(t, payload); err != nil {
				return off, false, err
			}
		}
		off += n
	}
	return off, true, nil
}
