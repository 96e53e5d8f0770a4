package chunkstore

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// fileBufPool recycles the raw file buffers chunk reads decode from. A
// chunk file's bytes live only from read to decode — decodeChunkInto
// copies every value and row id out, into the Postings it is given, never
// aliasing the file bytes — so the buffer can go straight back to the
// pool, cutting one len(chunk) allocation per read on the hot path.
// Buffers are sized for the default chunk target; larger chunks grow their
// pooled buffer in place and keep the larger capacity for reuse.
var fileBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, DefaultTargetChunkBytes+4096)
		return &b
	},
}

// readChunkFile reads the chunk meta names through its open handle f into
// a pooled buffer: one pread of the manifest's size plus one byte, so the
// byte count is the size check — a file that shrank or grew since it was
// opened reads short or long, and one fstat then names its size. The
// buffer is sized from the manifest, so what is on disk never sizes an
// allocation (a pooled buffer keeps its capacity). The caller must hand
// the buffer back with putFileBuf when done with its contents.
func readChunkFile(f *os.File, meta *ChunkMeta) (*[]byte, error) {
	bp := fileBufPool.Get().(*[]byte)
	b := *bp
	if int64(cap(b)) <= meta.Bytes {
		b = make([]byte, meta.Bytes+1)
	} else {
		b = b[:meta.Bytes+1]
	}
	*bp = b
	n, err := f.ReadAt(b, 0)
	if int64(n) == meta.Bytes {
		*bp = b[:n]
		return bp, nil
	}
	fileBufPool.Put(bp)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("chunkstore: read chunk %s: %w", meta.File, err)
	}
	if err := checkSize(f, meta); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("chunkstore: read chunk %s: read %d bytes of %d", meta.File, n, meta.Bytes)
}

// checkSize refuses an open chunk file whose size is not the manifest's.
func checkSize(f *os.File, meta *ChunkMeta) error {
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("chunkstore: read chunk %s: %w", meta.File, err)
	}
	if st.Size() != meta.Bytes {
		return fmt.Errorf("chunkstore: chunk %s is %d bytes, manifest says %d", meta.File, st.Size(), meta.Bytes)
	}
	return nil
}

// putFileBuf returns a pooled read buffer. The buffer's contents must not
// be referenced afterwards.
func putFileBuf(bp *[]byte) { fileBufPool.Put(bp) }

// postingsPool recycles the storage ReadChunksOrdered decodes cold chunks
// into when no block cache keeps them: a Postings is held for one visit
// (the sequential path: one call) and grows to the largest chunk it has
// met, ≈ 12 bytes per one-row posting, per concurrent reader.
var postingsPool = sync.Pool{New: func() any { return new(Postings) }}
