package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/dataset"
)

// storeDigest hashes every regular file under dir in lexical path order:
// its slash-separated path relative to dir, a zero byte, its length and
// its bytes.
func storeDigest(t *testing.T, dir string) (string, int) {
	t.Helper()
	h := sha256.New()
	files := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(filepath.ToSlash(rel)))
		h.Write([]byte{0})
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(data))))
		h.Write(data)
		files++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil)), files
}

// chunkDigest hashes every chunk of every part under dir — each directory
// holding a manifest.json, in lexical path order — in (part, dim, seq)
// order: its length and its bytes, read from its extent. It does not
// depend on how the chunks are laid out in files.
func chunkDigest(t *testing.T, dir string) (string, int) {
	t.Helper()
	h := sha256.New()
	chunks := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.Name() != "manifest.json" {
			return err
		}
		part := filepath.Dir(path)
		st, err := chunkstore.Open(part, nil)
		if err != nil {
			return err
		}
		defer st.Close()
		for dim, metas := range st.Manifest().Chunks {
			if len(metas) == 0 {
				continue
			}
			data, err := os.ReadFile(filepath.Join(part, fmt.Sprintf("d%02d.chk", dim)))
			if err != nil {
				return err
			}
			for _, m := range metas {
				h.Write(binary.LittleEndian.AppendUint64(nil, uint64(m.Bytes)))
				h.Write(data[m.Offset : m.Offset+m.Bytes])
				chunks++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil)), chunks
}

// TestGoldenStoreFiles pins the bytes of every file Build writes — data
// files, manifests, idmaps — for one dataset at one shard, three shards
// and live at two shards. A change to how a store is built that leaves
// these digests alone writes the same stores as before, byte for byte.
// The chunk digests pin the chunks alone, whatever files hold them: they
// were recorded from the per-chunk files of manifest format 2, and format
// 3's extents reproduce them; the one-shard store's are those of the flat
// store it replaced, whose files its one part holds unchanged. A static
// build is the first epoch of the live layout, so its files are a live
// build's over the same rows, minus the empty wal/ directory the digest
// does not see. Each store is built from two row sources, the dataset and
// a CSV file of its rows streamed from disk, to the same digests.
func TestGoldenStoreFiles(t *testing.T) {
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 3000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rows.csv")
	if err := dataset.WriteCSVFile(path, ds); err != nil {
		t.Fatal(err)
	}
	csv, err := dataset.OpenCSVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]dataset.Source{"dataset": ds, "csv": csv}
	cases := []struct {
		name         string
		opts         BuildOptions
		files        int
		digest       string
		chunks       int
		chunksDigest string
	}{
		{"one shard", BuildOptions{TargetChunkBytes: 2048}, 8, "ccfda8651ff2480eab56e133e7e9e2964e03509ec68c794c178ac73d138d24ca",
			62, "58b72221defd32634fe647504f4894f38b65737745eba0bfe271ce06024c8188"},
		{"sharded S=3", BuildOptions{TargetChunkBytes: 2048, Shards: 3}, 23, "228d7387340aaf2ccbfdec409723d374aac008b858e3a91e655d53b06f72a05a",
			70, "40d50bfdb2af09d770287eb3c81b45051523f39fb5add526424a0abe05e2d5b4"},
		{"live S=2", BuildOptions{TargetChunkBytes: 2048, Shards: 2, LiveIngest: true}, 16, "2f56cc7a23d490e04ebb888d139986e013b1894f61463480aacf15ff8ebb8eb9",
			67, "5505ffd66d15eac323e5421ef6b470db6e5ddc87a8496ca48d79cb9d5c08f1f5"},
	}
	for _, c := range cases {
		for from, src := range sources {
			dir := t.TempDir()
			if err := Build(dir, src, c.opts); err != nil {
				t.Fatalf("%s from %s: %v", c.name, from, err)
			}
			digest, files := storeDigest(t, dir)
			if digest != c.digest || files != c.files {
				t.Errorf("%s from %s: %d files, digest %s; want %d files, digest %s", c.name, from, files, digest, c.files, c.digest)
			}
			digest, chunks := chunkDigest(t, dir)
			if digest != c.chunksDigest || chunks != c.chunks {
				t.Errorf("%s from %s: %d chunks, digest %s; want %d chunks, digest %s", c.name, from, chunks, digest, c.chunks, c.chunksDigest)
			}
		}
	}
	static, live := t.TempDir(), t.TempDir()
	if err := Build(static, ds, BuildOptions{TargetChunkBytes: 2048, Shards: 3}); err != nil {
		t.Fatal(err)
	}
	if err := Build(live, ds, BuildOptions{TargetChunkBytes: 2048, Shards: 3, LiveIngest: true}); err != nil {
		t.Fatal(err)
	}
	staticDigest, _ := storeDigest(t, static)
	if liveDigest, _ := storeDigest(t, live); staticDigest != liveDigest {
		t.Errorf("S=3: static build digest %s, live build %s; want the same files", staticDigest, liveDigest)
	}
}
