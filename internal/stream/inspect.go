package stream

import (
	"os"

	"github.com/uei-db/uei/internal/shard"
)

// Info is an offline summary of a store, cheap enough for CLI
// inspection: it reads CURRENT, the manifest, and, of a live store, the
// WAL frames — no segment stores are opened.
type Info struct {
	Manifest *shard.Manifest
	// WALFiles is the number of live log generations.
	WALFiles int
	// WALBytes is their combined size on disk.
	WALBytes int64
	// WALRows counts replayable rows above the flushed high-water mark —
	// durable appends awaiting flush.
	WALRows int
	// HighWaterID is the highest acknowledged row id (flushed or WAL);
	// total acknowledged rows = HighWaterID + 1.
	HighWaterID uint32
}

// Inspect summarizes the layout under dir without opening it for writing
// (safe while another process owns the store, modulo a flush racing the
// WAL scan). It reads a live store's WAL as Open would replay it, so a
// generation Open refuses fails it, named; a static store has no WAL.
func Inspect(dir string) (*Info, error) {
	man, err := shard.ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	info := &Info{Manifest: man}
	if man.FlushedRows > 0 {
		info.HighWaterID = uint32(man.FlushedRows) - 1
	}
	if !IsLiveDir(dir) {
		return info, nil
	}
	flushed := uint32(man.FlushedRows)
	next, err := replayWAL(dir, len(man.Columns), flushed, func(_ int, path string, _ []walRecord) error {
		if st, err := os.Stat(path); err == nil {
			info.WALBytes += st.Size()
		}
		info.WALFiles++
		return nil
	})
	if err != nil {
		return nil, err
	}
	info.WALRows = int(next - flushed)
	if next > flushed {
		info.HighWaterID = next - 1
	}
	return info, nil
}
