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

// idMapRows is the row count FuzzLoadIDMap and TestParseIDMapRefuses give
// the parser with data: the count its header claims, at most 2¹⁶, so a
// file that claims more is refused as a part of 2¹⁶ rows refuses it.
func idMapRows(data []byte) int {
	if len(data) < 10 {
		return 0
	}
	return int(min(binary.LittleEndian.Uint32(data[6:10]), 1<<16))
}

// idMapRefusals are the files testdata/fuzz/FuzzLoadIDMap holds, each
// refused when parsed for idMapRows rows. The version-2 defects stand for
// the ones a gap cannot spell: ids that run past 2³²−1 for a repeated id,
// a width wider than the gaps need, and nonzero padding. count-past-rows
// claims 2³²−1 ids at width 0 in 19 bytes, which a part of fewer rows
// refuses before sizing anything by it.
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
	wide := append(slices.Clone(body[:idMapHeaderSize]), 0x63, 0x00) // gaps 3, 3 at width 5
	wide[14] = 5
	huge := slices.Clone(body[:idMapHeaderSize])
	binary.LittleEndian.PutUint32(huge[6:], 1<<32-1)
	huge[14] = 0
	return []idMapRefusal{
		{"truncated", "truncated", good[:13]},
		{"wrong-crc", "crc", badCRC},
		{"wrong-magic", "magic", edit(0, 'U', 'E', 'I', 'X')},
		{"wrong-version", "version", edit(4, 1, 0)},
		{"count-disagrees", "count", edit(6, 9)},
		{"repeated-id", "ascending", edit(10, 0xfa, 0xff, 0xff, 0xff)},
		{"wide-gaps", "width", resealIDMap(wide)},
		{"nonzero-padding", "padding", edit(len(body)-1, body[len(body)-1]|0x80)},
		{"count-past-rows", "65536 rows", resealIDMap(huge)},
	}
}

func TestParseIDMapRefuses(t *testing.T) {
	for _, c := range idMapRefusals() {
		if _, err := parseIDMap(c.data, idMapRows(c.data)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got error %v, want one naming %q", c.name, err, c.want)
		}
	}
	for _, ids := range idMapRuns() {
		got, err := parseIDMap(encodeIDMap(ids), len(ids))
		if err != nil || !slices.Equal(got, ids) {
			t.Errorf("%v: read back %v, %v", ids, got, err)
		}
		if _, err := parseIDMap(encodeIDMap(ids), len(ids)+1); err == nil || !strings.Contains(err.Error(), "count") {
			t.Errorf("%v read for a part of %d rows: err = %v, want the count refused", ids, len(ids)+1, err)
		}
	}
}

// idMapRuns are idmaps at the edges of the format: none, one id, gaps of
// width 0 (a contiguous run, as a live store's one-shard flush writes),
// gaps at width 32 (from 0 to 2³²−1 in one step), and short runs at every
// width between, the last gap the widest.
func idMapRuns() [][]uint32 {
	runs := [][]uint32{nil, {0}, {1<<32 - 1}, {1, 5, 9}, {7, 8, 9, 10, 11}, {0, 1<<32 - 1}, {0, 1 << 31, 1<<32 - 1}}
	for width := 1; width <= 31; width++ {
		run := []uint32{3}
		for i := 0; i < 9; i++ {
			run = append(run, run[len(run)-1]+1+uint32(i))
		}
		runs = append(runs, append(run, run[len(run)-1]+1<<width))
	}
	return runs
}

// TestIDMapSizes: a contiguous run of ids takes a header and a checksum
// whatever its length, and gaps below 64 take at most six bits each.
func TestIDMapSizes(t *testing.T) {
	run := make([]uint32, 50_000)
	for i := range run {
		run[i] = uint32(1000 + i)
	}
	if got := len(encodeIDMap(run)); got != idMapHeaderSize+4 {
		t.Errorf("a contiguous run takes %d bytes, want %d", got, idMapHeaderSize+4)
	}
	for i := range run {
		run[i] = uint32(64 * i)
	}
	if got, want := len(encodeIDMap(run)), idMapHeaderSize+(6*(len(run)-1)+7)/8+4; got != want {
		t.Errorf("gaps of 64 take %d bytes, want %d", got, want)
	}
}

// FuzzLoadIDMap feeds bytes to the idmap parser, which must return without
// panicking; an idmap it accepts is strictly ascending, and SaveIDMap's
// encoding of it is the input byte for byte. The committed corpus under
// testdata/fuzz/ holds idMapRefusals, each but the first two re-sealed
// with a correct CRC; the seeds are idmaps at gap widths 0, 6 and 32 and
// one whose gap runs past 2³²−1. Each input is parsed for idMapRows rows.
func FuzzLoadIDMap(f *testing.F) {
	f.Add(encodeIDMap([]uint32{0, 3, 70000}))
	f.Add(encodeIDMap(nil))
	f.Add(encodeIDMap([]uint32{40, 41, 42, 43}))
	f.Add(encodeIDMap([]uint32{0, 1<<32 - 1}))
	past := encodeIDMap([]uint32{2, 1<<32 - 1})
	past[10] = 3 // first id 3: its one gap of 2³²−2 lands on 2³²
	f.Add(resealIDMap(past[:len(past)-4]))
	f.Fuzz(func(t *testing.T, data []byte) {
		ids, err := parseIDMap(data, idMapRows(data))
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
