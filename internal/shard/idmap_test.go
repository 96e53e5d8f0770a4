package shard

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"slices"
	"strings"
	"testing"
)

// resealIDMap returns body followed by its CRC, the way SaveIDMap ends a
// file, so a check behind the CRC is what has to refuse it.
func resealIDMap(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(slices.Clone(body), crc32.ChecksumIEEE(body))
}

// idMapRefusal is a file the parser must refuse and a word its error names.
type idMapRefusal struct {
	name, want string
	data       []byte
}

// idMapRefusals are the files testdata/fuzz/FuzzLoadIDMap holds.
func idMapRefusals() []idMapRefusal {
	good := encodeIDMap([]uint32{1, 5, 9})
	body := good[:len(good)-4]
	edit := func(at int, b ...byte) []byte {
		out := slices.Clone(body)
		copy(out[at:], b)
		return resealIDMap(out)
	}
	badCRC := slices.Clone(good)
	badCRC[len(badCRC)-4] ^= 1
	return []idMapRefusal{
		{"truncated", "truncated", good[:13]},
		{"wrong-crc", "crc", badCRC},
		{"wrong-magic", "magic", edit(0, 'U', 'E', 'I', 'X')},
		{"wrong-version", "version", edit(4, 2, 0)},
		{"count-disagrees", "count", edit(6, 4)},
		{"repeated-id", "ascending", edit(14, 1)},
	}
}

func TestParseIDMapRefuses(t *testing.T) {
	for _, c := range idMapRefusals() {
		if _, err := parseIDMap(c.data); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got error %v, want one naming %q", c.name, err, c.want)
		}
	}
	for _, ids := range [][]uint32{nil, {0}, {1, 5, 9}, {0, 1 << 31, 1<<32 - 1}} {
		got, err := parseIDMap(encodeIDMap(ids))
		if err != nil || !slices.Equal(got, ids) {
			t.Errorf("%v: read back %v, %v", ids, got, err)
		}
	}
}

// FuzzLoadIDMap feeds bytes to the idmap parser, which must return without
// panicking; an idmap it accepts is strictly ascending, and SaveIDMap's
// encoding of it is the input byte for byte. The committed corpus under
// testdata/fuzz/ holds idMapRefusals, each but the first two re-sealed
// with a correct CRC.
func FuzzLoadIDMap(f *testing.F) {
	f.Add(encodeIDMap([]uint32{0, 3, 70000}))
	f.Add(encodeIDMap(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		ids, err := parseIDMap(data)
		if err != nil {
			return
		}
		for i := 1; i < len(ids); i++ {
			if ids[i] <= ids[i-1] {
				t.Fatalf("accepted id %d after %d at %d", ids[i], ids[i-1], i)
			}
		}
		if enc := encodeIDMap(ids); !bytes.Equal(enc, data) {
			t.Fatalf("accepted %d bytes holding %d ids, which SaveIDMap writes as %d other bytes", len(data), len(ids), len(enc))
		}
	})
}
