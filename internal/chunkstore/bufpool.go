package chunkstore

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// fileBufPool recycles the raw file buffers chunk reads decode from. A
// chunk file lives only from read to decode — decodeChunkInto copies every
// value and row id out, into the Postings it is given, never aliasing the
// file bytes — so the buffer can go straight back to the pool,
// cutting one len(chunk) allocation per read on the hot path. Buffers are
// sized for the default chunk target; larger chunks grow their pooled
// buffer in place and keep the larger capacity for reuse.
var fileBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, DefaultTargetChunkBytes+4096)
		return &b
	},
}

// readFilePooled reads chunk file name of dir, which the manifest says
// holds size bytes, into a pooled buffer. The size is checked before the
// buffer is sized, so what is on disk never sizes an allocation (a pooled
// buffer keeps its capacity). The caller must hand the buffer back with
// putFileBuf when done with its contents.
func readFilePooled(dir, name string, size int64) (*[]byte, error) {
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		return nil, fmt.Errorf("chunkstore: read chunk %s: %w", name, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("chunkstore: read chunk %s: %w", name, err)
	}
	if st.Size() != size {
		return nil, fmt.Errorf("chunkstore: chunk %s is %d bytes, manifest says %d", name, st.Size(), size)
	}
	bp := fileBufPool.Get().(*[]byte)
	b := *bp
	if int64(cap(b)) < size {
		b = make([]byte, size)
	} else {
		b = b[:size]
	}
	if _, err := io.ReadFull(f, b); err != nil {
		fileBufPool.Put(bp)
		return nil, fmt.Errorf("chunkstore: read chunk %s: read %d bytes: %w", name, size, err)
	}
	*bp = b
	return bp, nil
}

// putFileBuf returns a pooled read buffer. The buffer's contents must not
// be referenced afterwards.
func putFileBuf(bp *[]byte) { fileBufPool.Put(bp) }

// postingsPool recycles the storage ReadChunksOrdered decodes cold chunks
// into when no block cache keeps them: a Postings is held for one visit
// (the sequential path: one call) and grows to the largest chunk it has
// met, ≈ 16 bytes per one-row posting, per concurrent reader.
var postingsPool = sync.Pool{New: func() any { return new(Postings) }}
