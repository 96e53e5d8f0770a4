package chunkstore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestTornDataFileRefusedAtOpen: a data file cut at any extent boundary of
// its dimension, or one byte either side of one, does not open, and the
// refusal names the file and both sizes. The restored file opens again.
func TestTornDataFileRefusedAtOpen(t *testing.T) {
	st, _ := buildTestStore(t, 500, 11)
	for d, chunks := range st.Manifest().Chunks {
		if len(chunks) < 2 {
			t.Fatalf("dimension %d has %d chunk, the test wants an inner boundary", d, len(chunks))
		}
		path := filepath.Join(st.dir, dataFileName(d))
		whole, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		size := int64(len(whole))
		for _, c := range chunks {
			for _, cut := range []int64{c.Offset - 1, c.Offset, c.Offset + 1, c.Offset + c.Bytes - 1, c.Offset + c.Bytes + 1} {
				if cut < 0 {
					continue
				}
				torn := whole[:min(cut, size)]
				if cut > size {
					torn = append(torn[:size:size], 0)
				}
				if err := os.WriteFile(path, torn, 0o644); err != nil {
					t.Fatal(err)
				}
				want := fmt.Sprintf("chunkstore: data file %s is %d bytes, its chunks in the manifest %d", path, cut, size)
				if re, err := Open(st.dir, nil); err == nil || err.Error() != want {
					if err == nil {
						re.Close()
					}
					t.Fatalf("%s cut at %d (chunk %s at %d): Open err = %v, want %q", dataFileName(d), cut, c.File, c.Offset, err, want)
				}
			}
		}
		if err := os.WriteFile(path, whole, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(st.dir, nil)
		if err != nil {
			t.Fatalf("%s restored: %v", dataFileName(d), err)
		}
		re.Close()
	}
}

// TestFlippedBitFailsOnlyItsChunk: one bit flipped inside a chunk's extent
// fails that chunk's read with the CRC error naming the chunk and its data
// file, and Verify blames the same chunk and file; every other chunk of
// the store still reads as before. Each chunk is flipped in turn.
func TestFlippedBitFailsOnlyItsChunk(t *testing.T) {
	ctx := context.Background()
	st, _ := buildTestStore(t, 500, 12)
	var metas []ChunkMeta
	var wants [][]Entry
	for _, chunks := range st.Manifest().Chunks {
		for _, meta := range chunks {
			want, err := st.ReadChunk(ctx, meta)
			if err != nil {
				t.Fatal(err)
			}
			metas, wants = append(metas, meta), append(wants, want)
		}
	}
	for v, victim := range metas {
		data := readExtentBytes(t, st.dir, victim)
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)/2] ^= 1 << (v % 8)
		writeExtent(t, st.dir, victim, flipped)
		prefix := fmt.Sprintf("chunkstore: chunk %s of %s: chunkstore: chunk corrupted: crc ", victim.File, dataFileName(victim.Dim))
		for i, meta := range metas {
			got, err := st.ReadChunk(ctx, meta)
			switch {
			case i == v && (err == nil || !strings.HasPrefix(err.Error(), prefix)):
				t.Fatalf("%s flipped: err = %v, want one starting %q", victim.File, err, prefix)
			case i != v && err != nil:
				t.Fatalf("%s flipped: reading %s: %v", victim.File, meta.File, err)
			case i != v && !reflect.DeepEqual(got, wants[i]):
				t.Fatalf("%s flipped: %s reads other entries", victim.File, meta.File)
			}
		}
		var ve *VerifyError
		if err := Verify(ctx, st); !errors.As(err, &ve) || ve.Chunk != victim.File || ve.File != dataFileName(victim.Dim) || ve.Field != "file" {
			t.Fatalf("%s flipped: Verify err = %v, want one blaming it and its file", victim.File, err)
		}
		writeExtent(t, st.dir, victim, data)
	}
	if err := Verify(ctx, st); err != nil {
		t.Fatalf("every chunk restored: %v", err)
	}
}
