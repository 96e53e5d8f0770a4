package stream

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"strings"
	"testing"
)

// isTornFrame reports whether b, the bytes after the last record a replay
// accepted, is nothing or a frame that cannot be replayed: a header cut
// short, a payload cut short, or a payload its CRC does not match.
func isTornFrame(b []byte) bool {
	if len(b) < 8 {
		return true
	}
	n := uint64(binary.LittleEndian.Uint32(b))
	if 8+n > uint64(len(b)) {
		return true
	}
	return crc32.ChecksumIEEE(b[8:8+n]) != binary.LittleEndian.Uint32(b[4:])
}

// FuzzReadWAL reads bytes as (dims, log file) and replays the file for a
// store of dims columns (1–4). The replay must not panic; every record it
// accepts holds rows whose ids stay below 2³², and the records re-encode,
// frame for frame as walWriter writes them, to a prefix of the file whose
// remainder is a torn frame. The committed corpus under testdata/fuzz/
// holds the CRC-valid records the replay refuses: no rows, ids wrapping
// past 2³²−1, the wrong dims, a payload too short for its header — and a
// torn frame header.
func FuzzReadWAL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		dims, file := 1+int(data[0])%4, data[1:]
		recs, err := parseWAL(file, dims)
		if err != nil {
			return
		}
		var enc []byte
		for i, rec := range recs {
			if len(rec.rows) == 0 || uint64(rec.firstID)+uint64(len(rec.rows)) > math.MaxUint32+1 {
				t.Fatalf("record %d: %d rows from id %d accepted", i, len(rec.rows), rec.firstID)
			}
			enc = appendWALFrame(enc, rec.firstID, rec.rows, dims)
		}
		if !bytes.HasPrefix(file, enc) {
			t.Fatalf("%d accepted records re-encode to %d bytes that do not begin the file", len(recs), len(enc))
		}
		if rest := file[len(enc):]; !isTornFrame(rest) {
			t.Fatalf("replay stopped %d bytes into the file before a whole frame", len(enc))
		}
	})
}

// TestParseWALRefusesUnboundedRecords: a CRC-valid record of no rows — at
// id 0 it made recovery's high-water mark 2³²−1, so the file was never
// retired — or of ids running past 2³²−1 is an error naming its offset,
// not a record; ids ending at 2³²−1 are fine.
func TestParseWALRefusesUnboundedRecords(t *testing.T) {
	one := appendWALFrame(nil, 0, [][]float64{{1, 2}}, 2)
	for _, c := range []struct {
		name    string
		file    []byte
		wantErr string
	}{
		{"zero rows at id 0", appendWALFrame(bytes.Clone(one), 0, nil, 2), "wal record at 36 holds no rows"},
		{"zero rows at id 7", appendWALFrame(nil, 7, nil, 2), "wal record at 0 holds no rows"},
		{"wrapping ids", appendWALFrame(bytes.Clone(one), math.MaxUint32, [][]float64{{1, 2}, {3, 4}}, 2), "wal record at 36: 2 rows from id 4294967295 run past id 4294967295"},
		{"ids ending at 2³²−1", appendWALFrame(bytes.Clone(one), math.MaxUint32-1, [][]float64{{1, 2}, {3, 4}}, 2), ""},
	} {
		recs, err := parseWAL(c.file, 2)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.wantErr == "" && len(recs) != 2:
			t.Errorf("%s: %d records, want 2", c.name, len(recs))
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: err = %v, want %q", c.name, err, c.wantErr)
		}
	}
}
