package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

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

// TestGoldenStoreFiles pins the bytes of every file Build writes — chunk
// files, manifests, idmaps — for one dataset in each on-disk layout. A
// change to how a store is built that leaves these digests alone writes
// the same stores as before, byte for byte.
func TestGoldenStoreFiles(t *testing.T) {
	ds, err := dataset.GenerateSky(dataset.SkyConfig{N: 3000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		opts   BuildOptions
		files  int
		digest string
	}{
		{"flat", BuildOptions{TargetChunkBytes: 2048}, 63, "bd1144e8ed7daf4881c421476ca73c3d9177fa33771a0dd050d9f62346e6bf83"},
		{"sharded S=3", BuildOptions{TargetChunkBytes: 2048, Shards: 3}, 77, "dfa3ec0d415223e413699779327416233430b344604f407526fea362892c7948"},
		{"live S=2", BuildOptions{TargetChunkBytes: 2048, Shards: 2, LiveIngest: true}, 73, "bf70d2976360015643bfecb4b855c46475a2eb7582c32fddbdb4ee411b06379d"},
	}
	for _, c := range cases {
		dir := t.TempDir()
		if err := Build(dir, ds, c.opts); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		digest, files := storeDigest(t, dir)
		if digest != c.digest || files != c.files {
			t.Errorf("%s: %d files, digest %s; want %d files, digest %s", c.name, files, digest, c.files, c.digest)
		}
	}
}
