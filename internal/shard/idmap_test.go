package shard

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
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

// mergeLocalIDs is the linear merge localIDs replaced: it walks the idmap
// and the ascending global ids side by side.
func mergeLocalIDs(idmap, globalIDs []uint32) []uint32 {
	var local []uint32
	li := 0
	for _, g := range globalIDs {
		for li < len(idmap) && idmap[li] < g {
			li++
		}
		if li == len(idmap) {
			break
		}
		if idmap[li] == g {
			local = append(local, uint32(li))
			li++
		}
	}
	return local
}

// TestLocalIDsMatchesMerge holds the binary-searching localIDs to the
// linear merge on generated idmaps and fetches: empty on either side, ids
// the part does not hold, every id the part holds, and random mixes.
func TestLocalIDsMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ascending := func(n, span int) []uint32 {
		seen := map[uint32]bool{}
		for len(seen) < n {
			seen[uint32(rng.Intn(span))] = true
		}
		out := make([]uint32, 0, n)
		for id := range seen {
			out = append(out, id)
		}
		slices.Sort(out)
		return out
	}
	for trial := 0; trial < 500; trial++ {
		span := 1 + rng.Intn(2000)
		idmap := ascending(rng.Intn(span+1), span)
		var fetch []uint32
		switch trial % 5 {
		case 0: // nothing asked for
		case 1: // every id the part holds
			fetch = slices.Clone(idmap)
		case 2: // only ids the part does not hold
			for g := uint32(0); g < uint32(span)+10; g++ {
				if _, held := slices.BinarySearch(idmap, g); !held && rng.Intn(3) == 0 {
					fetch = append(fetch, g)
				}
			}
		default: // a mix, reaching past the part's last id
			fetch = ascending(rng.Intn(span+1), span+50)
		}
		p := &Part{IDMap: idmap}
		got, want := p.localIDs(fetch), mergeLocalIDs(idmap, fetch)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: idmap of %d, fetch of %d: localIDs %v, merge %v", trial, len(idmap), len(fetch), got, want)
		}
		if trial%5 == 1 && len(got) != len(idmap) {
			t.Fatalf("trial %d: fetching all %d held ids found %d", trial, len(idmap), len(got))
		}
		if trial%5 == 2 && len(got) != 0 {
			t.Fatalf("trial %d: a disjoint fetch found %v", trial, got)
		}
	}
}
