package chunkstore

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// fileBufPool recycles the raw buffers chunk reads decode from. A chunk's
// bytes live only from read to decode — decodeChunkInto copies every value
// and row id out, into the Postings it is given, never aliasing the read
// bytes — so the buffer can go straight back to the pool, cutting one
// len(chunk) allocation per read on the hot path.
// Buffers are sized for the default chunk target; larger chunks grow their
// pooled buffer in place and keep the larger capacity for reuse.
var fileBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, DefaultTargetChunkBytes+4096)
		return &b
	},
}

// readExtent reads the chunk meta names from its dimension's data file f
// into a pooled buffer: one pread of its extent. The buffer is sized from
// the manifest, which Open has held to the file's size, so what is on disk
// never sizes an allocation (a pooled buffer keeps its capacity). The
// caller must hand the buffer back with putFileBuf when done with its
// contents.
func readExtent(f *os.File, meta *ChunkMeta) (*[]byte, error) {
	bp := fileBufPool.Get().(*[]byte)
	b := *bp
	if int64(cap(b)) < meta.Bytes {
		b = make([]byte, meta.Bytes)
	}
	b = b[:meta.Bytes]
	*bp = b
	n, err := f.ReadAt(b, meta.Offset)
	if n == len(b) {
		return bp, nil
	}
	fileBufPool.Put(bp)
	if err == nil || err == io.EOF {
		err = fmt.Errorf("read %d bytes of %d at %d", n, meta.Bytes, meta.Offset)
	}
	return nil, fmt.Errorf("chunkstore: read chunk %s of %s: %w", meta.File, dataFileName(meta.Dim), err)
}

// putFileBuf returns a pooled read buffer. The buffer's contents must not
// be referenced afterwards.
func putFileBuf(bp *[]byte) { fileBufPool.Put(bp) }

// postingsPool recycles the storage ReadChunksOrdered decodes cold chunks
// into when no block cache keeps them: a call holds one Postings, decodes
// each chunk over the last, and grows it to the largest chunk it has met,
// ≈ 12 bytes per one-row posting, per concurrent reader.
var postingsPool = sync.Pool{New: func() any { return new(Postings) }}
