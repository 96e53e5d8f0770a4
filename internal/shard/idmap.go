package shard

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Each shard's chunk store numbers its rows densely 0..n-1 (chunkstore
// requires it), but every consumer of the sharded index — sampling,
// labeling, retrieval — speaks global row ids. The idmap file records the
// translation: idmap[local] = global. It is strictly ascending because
// Build scans the dataset in global id order, which also means a shard's
// local id order and global id order agree — merged rows stay sorted
// after remapping.
//
// File layout (little endian):
//
//	magic   [4]byte "UEIM"
//	version uint16  (currently 1)
//	count   uint32
//	ids     count × uint32
//	crc32   uint32  IEEE CRC of everything before it

const (
	idMapFile    = "idmap"
	idMapMagic   = "UEIM"
	idMapVersion = 1
)

// SaveIDMap writes dir's idmap file atomically (tmp + rename). Exported
// for the stream subsystem, whose flushed segments carry the same CRC'd
// local→global translation as build-time shards.
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

// encodeIDMap returns the bytes of an idmap file holding ids.
func encodeIDMap(ids []uint32) []byte {
	buf := make([]byte, 0, 4+2+4+4*len(ids)+4)
	buf = append(buf, idMapMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, idMapVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ids)))
	for _, id := range ids {
		buf = binary.LittleEndian.AppendUint32(buf, id)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// LoadIDMap reads and verifies dir's idmap file (CRC, magic, strict
// ascension).
func LoadIDMap(dir string) ([]uint32, error) {
	data, err := os.ReadFile(filepath.Join(dir, idMapFile))
	if err != nil {
		return nil, fmt.Errorf("shard: read idmap: %w", err)
	}
	return parseIDMap(data)
}

// parseIDMap decodes and verifies the bytes of an idmap file.
func parseIDMap(data []byte) ([]uint32, error) {
	if len(data) < 4+2+4+4 {
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
	if int(count)*4 != len(body)-10 {
		return nil, fmt.Errorf("shard: idmap count %d disagrees with %d payload bytes", count, len(body)-10)
	}
	ids := make([]uint32, count)
	for i := range ids {
		ids[i] = binary.LittleEndian.Uint32(body[10+4*i:])
		if i > 0 && ids[i] <= ids[i-1] {
			return nil, fmt.Errorf("shard: idmap not strictly ascending at %d", i)
		}
	}
	return ids, nil
}
