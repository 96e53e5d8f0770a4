package chunkstore

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// oneRowChunkData encodes n one-row postings: value i posts row 3i.
func oneRowChunkData(t testing.TB, n int) []byte {
	t.Helper()
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Value: float64(i), Rows: []uint32{uint32(3 * i)}}
	}
	data, err := encodeChunk(0, entries)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// multiRowChunkData encodes n postings of two rows each: its ends are
// 2, 4, 6, …, which a decode must not write over any identity prefix.
func multiRowChunkData(t testing.TB, n int) []byte {
	t.Helper()
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Value: float64(i), Rows: []uint32{uint32(2 * i), uint32(2*i + 1)}}
	}
	data, err := encodeChunk(1, entries)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// identityBroken describes how ends fails to read 1…len(ends), or is "".
func identityBroken(ends []uint32) string {
	for i, e := range ends {
		if e != uint32(i+1) {
			return fmt.Sprintf("end %d of %d reads %d", i, len(ends), e)
		}
	}
	return ""
}

// requireIdentityPrefix fails t unless the current identity column reads
// 1, 2, 3, … and, when p is a chunk of one-row postings, p.Ends is a
// prefix of it: the column's own memory, clipped so an append moves it.
func requireIdentityPrefix(t *testing.T, what string, p *Postings) {
	t.Helper()
	cur := identity.Load()
	if cur != nil {
		if msg := identityBroken(*cur); msg != "" {
			t.Fatalf("%s: the identity column is overwritten: %s", what, msg)
		}
	}
	if len(p.Values) == 0 || len(p.Rows) != len(p.Values) {
		return
	}
	if cur == nil || len(*cur) < len(p.Ends) || &p.Ends[0] != &(*cur)[0] {
		t.Fatalf("%s: %d one-row postings whose ends are not a prefix of the identity column", what, len(p.Values))
	}
	if cap(p.Ends) != len(p.Ends) {
		t.Fatalf("%s: one-row ends have spare capacity %d", what, cap(p.Ends)-len(p.Ends))
	}
}

// TestIdentityEndsSurviveGrowth: a buffer whose ends are a prefix of an
// identity generation the column has since grown past must not have a
// multi-row chunk unpacked over that generation. A guard against aliasing
// only the current generation lets the decode write 2, 4, 6, … through the
// old prefix, which every earlier one-row chunk still reads. Alternating
// one-row and multi-row chunks through one buffer then allocates nothing.
func TestIdentityEndsSurviveGrowth(t *testing.T) {
	// Start a fresh generation, so the longer chunk below grows the
	// column. Holders of earlier generations keep them: none is written.
	identity.Store(nil)
	short, long, multi := oneRowChunkData(t, 8), oneRowChunkData(t, 64), multiRowChunkData(t, 4)

	buf := new(Postings)
	if _, err := decodeChunkInto(short, buf, nil); err != nil {
		t.Fatal(err)
	}
	requireIdentityPrefix(t, "short chunk", buf)
	earlier := buf.Ends
	_, other, err := decodeChunk(long)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentityPrefix(t, "long chunk", &other)
	if &other.Ends[0] == &earlier[0] {
		t.Fatal("the long chunk did not grow the identity column")
	}
	requireDecodeMatchesReference(t, "multi-row chunk into the short chunk's buffer", multi, buf)
	requireIdentityPrefix(t, "multi-row chunk", buf)
	for _, prefix := range [][]uint32{earlier, other.Ends} {
		if msg := identityBroken(prefix); msg != "" {
			t.Fatalf("an earlier one-row chunk's ends changed under it: %s", msg)
		}
	}
	_, fresh, err := decodeChunk(short)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentityPrefix(t, "fresh short chunk", &fresh)
	_, want, _ := referenceDecode(short)
	if !reflect.DeepEqual(fresh.Entries(), want) {
		t.Fatal("a fresh one-row decode after the growth differs from the reference's")
	}

	allocs := testing.AllocsPerRun(20, func() {
		for _, data := range [][]byte{short, multi, long, multi} {
			if _, err := decodeChunkInto(data, buf, nil); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("alternating one-row and multi-row decodes into one buffer: %v allocations a round, want 0", allocs)
	}
}

// TestIdentityEndsConcurrentGrowth decodes one-row chunks of growing entry
// counts on several goroutines, each into a buffer that then takes a
// multi-row chunk, while other goroutines read every prefix handed out so
// far. Each decoder grows the column past its buffer's prefix before the
// multi-row decode, so a decode that wrote through a prefix of an older
// generation would show here — as a changed end, and under -race as a
// write racing the readers.
func TestIdentityEndsConcurrentGrowth(t *testing.T) {
	identity.Store(nil)
	// 3^k entries: each size is more than twice the one before, so the
	// first decoder to reach it publishes a new generation.
	const steps = 8
	sizes := make([]int, steps+1)
	oneRow := make([][]byte, steps+1)
	for k, n := 0, 1; k <= steps; k, n = k+1, 3*n {
		sizes[k], oneRow[k] = n, oneRowChunkData(t, n)
	}
	multi := multiRowChunkData(t, 3)

	var (
		mu       sync.Mutex
		prefixes [][]uint32
		failed   = make(chan string, 1)
		wg       sync.WaitGroup
	)
	fail := func(msg string) {
		select {
		case failed <- msg:
		default:
		}
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				mu.Lock()
				held := prefixes
				mu.Unlock()
				for _, p := range held {
					if msg := identityBroken(p); msg != "" {
						fail("a reader saw a prefix change: " + msg)
						return
					}
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf, grow := new(Postings), new(Postings)
			for k := 0; k < steps; k++ {
				if _, err := decodeChunkInto(oneRow[k], buf, nil); err != nil || len(buf.Ends) != sizes[k] {
					fail(fmt.Sprintf("one-row decode of %d postings: %v", sizes[k], err))
					return
				}
				mu.Lock()
				prefixes = append(prefixes, buf.Ends)
				mu.Unlock()
				if _, err := decodeChunkInto(oneRow[k+1], grow, nil); err != nil {
					fail(err.Error())
					return
				}
				if _, err := decodeChunkInto(multi, buf, nil); err != nil {
					fail(err.Error())
					return
				}
				for i, e := range buf.Ends {
					if e != uint32(2*i+2) {
						fail(fmt.Sprintf("multi-row end %d reads %d", i, e))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
	select {
	case msg := <-failed:
		t.Fatal(msg)
	default:
	}
	for _, p := range prefixes {
		if msg := identityBroken(p); msg != "" {
			t.Fatalf("a one-row chunk's ends changed after its decode: %s", msg)
		}
	}
}
