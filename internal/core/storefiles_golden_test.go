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
// The chunk digests pin the chunks alone, whatever files hold them, cut
// at the size target and at every segment boundary of the epoch grid. A
// static build is the first epoch of the live layout, so its files are a
// live build's over the same rows, minus the empty wal/ directory the
// digest does not see. Each store is built from two row sources, the
// dataset and a CSV file of its rows streamed from disk, to the same
// digests.
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
		{"one shard", BuildOptions{TargetChunkBytes: 2048}, 8, "dca34823a56474e98cae0d6cff52123a546c2c6d7ee9dba1364591b7e9f04d98",
			75, "39dc817dbc9196092ae6e5b99a9af21e329ad33653f51154fa5c666d418a919e"},
		{"sharded S=3", BuildOptions{TargetChunkBytes: 2048, Shards: 3}, 23, "92920ed378d8f6305f2aaef26ff37134e29ca2734a36245f91ad57b5827e3e6c",
			96, "fbe46ae65477211bbb2832da97614e450778ca829a36357cf7a1ce23faf16ae5"},
		{"live S=2", BuildOptions{TargetChunkBytes: 2048, Shards: 2, LiveIngest: true}, 16, "01b5381a6ed069e03ca2b26b646571e75efcb46d88da173500f4720e7adbcc59",
			89, "ff3d3a3c583e302048082facebdbf578dfa7c21bd2bf48cc59eb371d6fcbc110"},
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
