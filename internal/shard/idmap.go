package shard

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"os"
	"path/filepath"

	"github.com/uei-db/uei/internal/kernel"
)

// Each shard's chunk store numbers its rows densely 0..n-1 (chunkstore
// requires it), but every consumer of the sharded index — sampling,
// labeling, retrieval — speaks global row ids. The idmap file records the
// translation: idmap[local] = global. It is strictly ascending because
// Build scans the dataset in global id order, which also means a shard's
// local id order and global id order agree — merged rows stay sorted
// after remapping.
//
// File layout, version 2 (little endian):
//
//	magic   [4]byte "UEIM"
//	version uint16  2
//	count   uint32
//	first   uint32  the first id (0 when count is 0)
//	width   uint8   the gap width in bits, 0…32
//	gaps    the count − 1 later ids, each as its gap from the one before
//	        less one, packed LSB-first at width bits, unused bits zero
//	crc32   uint32  IEEE CRC of everything before it
//
// width is the width of the largest gap less one, so the ids of a part
// whose rows are contiguous — a live store's appended, one-shard flush —
// take no gap bits at all. Each file has one encoding: the parser refuses
// a wider width than the gaps need and nonzero padding.

const (
	idMapFile       = "idmap"
	idMapMagic      = "UEIM"
	idMapVersion    = 2
	idMapHeaderSize = 4 + 2 + 4 + 4 + 1
)

// SaveIDMap writes dir's idmap file atomically (tmp + rename). Exported
// for the stream subsystem, whose flushed segments carry the same CRC'd
// local→global translation as build-time shards. ids must strictly ascend.
func SaveIDMap(dir string, ids []uint32) error {
	buf := encodeIDMap(ids)
	path := filepath.Join(dir, idMapFile)
	if err := os.WriteFile(path+".tmp", buf, 0o644); err != nil {
		return fmt.Errorf("shard: write idmap: %w", err)
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		return fmt.Errorf("shard: commit idmap: %w", err)
	}
	return nil
}

// encodeIDMap returns the bytes of an idmap file holding ids, which must
// strictly ascend.
func encodeIDMap(ids []uint32) []byte {
	first, gaps := uint32(0), uint32(0)
	if len(ids) > 0 {
		first = ids[0]
	}
	for i := 1; i < len(ids); i++ {
		gaps |= ids[i] - ids[i-1] - 1
	}
	width := uint(bits.Len32(gaps))
	buf := make([]byte, 0, idMapHeaderSize+gapBytes(len(ids), width)+4)
	buf = append(buf, idMapMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, idMapVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ids)))
	buf = binary.LittleEndian.AppendUint32(buf, first)
	buf = append(buf, byte(width))
	var bw kernel.BitWriter
	for i := 1; i < len(ids); i++ {
		buf = bw.Append(buf, ids[i]-ids[i-1]-1, width)
	}
	buf = bw.Flush(buf)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// gapBytes is the size of the gap section of count ids at width.
func gapBytes(count int, width uint) int {
	return (max(count-1, 0)*int(width) + 7) / 8
}

// LoadIDMap reads and verifies dir's idmap file (CRC, magic, version, one
// id for each of the part's rows, one encoding, strict ascension below
// 2³²).
func LoadIDMap(dir string, rows int) ([]uint32, error) {
	data, err := os.ReadFile(filepath.Join(dir, idMapFile))
	if err != nil {
		return nil, fmt.Errorf("shard: read idmap: %w", err)
	}
	return parseIDMap(data, rows)
}

// IDMapWidth returns the gap width and the size in bytes of dir's idmap
// file, from its header alone: it describes a part, which LoadIDMap
// checks.
func IDMapWidth(dir string) (width int, size int64, err error) {
	f, err := os.Open(filepath.Join(dir, idMapFile))
	if err != nil {
		return 0, 0, fmt.Errorf("shard: read idmap: %w", err)
	}
	defer f.Close()
	var head [idMapHeaderSize]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return 0, 0, fmt.Errorf("shard: read idmap header: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		return 0, 0, fmt.Errorf("shard: read idmap: %w", err)
	}
	return int(head[14]), info.Size(), nil
}

// parseIDMap decodes and verifies the bytes of the idmap file of a part of
// rows rows. A count other than rows is refused before anything is sized
// by it: at width 0 a file of any count is header and checksum alone. The
// gaps are unpacked by kernel.Unpack straight into the ids and summed in
// place.
func parseIDMap(data []byte, rows int) ([]uint32, error) {
	if len(data) < idMapHeaderSize+4 {
		return nil, fmt.Errorf("shard: idmap truncated: %d bytes", len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("shard: idmap corrupted: crc %#x, want %#x", got, want)
	}
	if string(body[:4]) != idMapMagic {
		return nil, fmt.Errorf("shard: idmap bad magic %q", body[:4])
	}
	if v := binary.LittleEndian.Uint16(body[4:6]); v != idMapVersion {
		return nil, fmt.Errorf("shard: unsupported idmap version %d", v)
	}
	count := binary.LittleEndian.Uint32(body[6:10])
	if int64(count) != int64(rows) {
		return nil, fmt.Errorf("shard: idmap count %d, the part has %d rows", count, rows)
	}
	first := binary.LittleEndian.Uint32(body[10:14])
	width := uint(body[14])
	if width > 32 {
		return nil, fmt.Errorf("shard: idmap gap width %d past 32", width)
	}
	gaps := body[idMapHeaderSize:]
	if size := (uint64(max(count, 1)-1)*uint64(width) + 7) / 8; size != uint64(len(gaps)) {
		return nil, fmt.Errorf("shard: idmap count %d at width %d disagrees with %d payload bytes", count, width, len(gaps))
	}
	if count == 0 {
		if first != 0 || width != 0 {
			return nil, fmt.Errorf("shard: idmap of no ids carries first id %d, width %d", first, width)
		}
		return []uint32{}, nil
	}
	if used := (uint64(count) - 1) * uint64(width) % 8; used != 0 && gaps[len(gaps)-1]>>used != 0 {
		return nil, fmt.Errorf("shard: idmap nonzero padding bits")
	}
	ids := make([]uint32, count)
	if width > 0 {
		kernel.Unpack(ids[1:], gaps, width)
	}
	all, id := uint32(0), uint64(first)
	ids[0] = first
	for i := 1; i < len(ids); i++ {
		all |= ids[i]
		id += uint64(ids[i]) + 1
		ids[i] = uint32(id)
	}
	if id > math.MaxUint32 {
		return nil, fmt.Errorf("shard: idmap not strictly ascending: its ids run past %d", uint32(math.MaxUint32))
	}
	if need := uint(bits.Len32(all)); need != width {
		return nil, fmt.Errorf("shard: idmap gap width %d, its gaps need %d", width, need)
	}
	return ids, nil
}
