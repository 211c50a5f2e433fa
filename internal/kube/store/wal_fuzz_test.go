package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"testing"
)

// frameAt independently checks the frame starting at wal[0]: the header
// fits, the declared length is positive and fits, the CRC matches and the
// payload decodes as a walRecord. It returns the frame's total size.
func frameAt(wal []byte) (size int, ok bool) {
	if len(wal) < 8 {
		return 0, false
	}
	n := int(binary.LittleEndian.Uint32(wal))
	if n <= 0 || n > len(wal)-8 {
		return 0, false
	}
	payload := wal[8 : 8+n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(wal[4:]) {
		return 0, false
	}
	var rec walRecord
	if json.Unmarshal(payload, &rec) != nil {
		return 0, false
	}
	return 8 + n, true
}

// FuzzValidateWAL is the WAL-frame fuzz target. On any bytes validateWAL
// must not panic and must return the longest prefix of the input made of
// whole frames that each pass the length, CRC and decode checks, count
// exactly those frames, and report a torn tail exactly when it cut bytes.
// The seed corpus (testdata/fuzz/FuzzValidateWAL) is a real churn log plus
// truncated, bit-flipped and forged-length copies of it.
func FuzzValidateWAL(f *testing.F) {
	f.Fuzz(func(t *testing.T, wal []byte) {
		valid, torn, records := validateWAL(wal)
		if len(valid) > len(wal) || !bytes.Equal(valid, wal[:len(valid)]) {
			t.Fatalf("valid region (%d bytes) is not a prefix of the %d-byte input", len(valid), len(wal))
		}
		off, frames := 0, 0
		for off < len(valid) {
			size, ok := frameAt(valid[off:])
			if !ok {
				t.Fatalf("accepted region holds an invalid frame at offset %d", off)
			}
			off += size
			frames++
		}
		if off != len(valid) {
			t.Fatalf("accepted region ends mid-frame: %d of %d bytes framed", off, len(valid))
		}
		if records != frames {
			t.Fatalf("records = %d, accepted frames = %d", records, frames)
		}
		if torn != (len(valid) < len(wal)) {
			t.Fatalf("torn = %v with %d of %d bytes accepted", torn, len(valid), len(wal))
		}
		if _, ok := frameAt(wal[len(valid):]); torn && ok {
			t.Fatalf("cut a valid frame at offset %d: prefix is not the longest", len(valid))
		}
	})
}
