package stream

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// The write-ahead log makes appends durable before they are acknowledged:
// one file per memtable generation (rotated at freeze), each a sequence of
// CRC-framed records. A record is the unit of atomicity — either all its
// rows replay or none do — and records carry explicit row ids, so replay
// after a crash filters everything the committed manifest already covers
// (FlushedRows) without double-applying.
//
// Frame layout (little endian):
//
//	length  uint32  payload bytes
//	crc32   uint32  IEEE CRC of the payload
//	payload:
//	  firstID uint32  global id of the record's first row
//	  count   uint32  rows in the record
//	  dims    uint32
//	  vals    count × dims × float64
//
// A torn tail (short or CRC-failing frame) ends replay of that file; the
// fsync-per-append discipline guarantees every acknowledged record
// precedes any torn one. A CRC-valid record that holds no rows, or whose
// ids would run past 2³²−1, is refused: no writer produces one, and
// recovery's high-water mark firstID+count−1 would wrap.

// walDir holds the write-ahead log files. A store directory is live iff
// it holds one.
const walDir = "wal"

// IsLiveDir reports whether the store directory dir is live: it holds a
// wal/ directory.
func IsLiveDir(dir string) bool {
	st, err := os.Stat(filepath.Join(dir, walDir))
	return err == nil && st.IsDir()
}

// WALFileName returns the log file name of generation seq.
func WALFileName(seq int) string { return fmt.Sprintf("wal-%06d.log", seq) }

// walWriter appends records to one log file, fsyncing each append.
type walWriter struct {
	f   *os.File
	seq int
	// maxID is the highest row id written to this file (0 when empty —
	// disambiguated by rows > 0).
	maxID uint32
	rows  int
	buf   []byte
}

func newWALWriter(dir string, seq int) (*walWriter, error) {
	path := filepath.Join(dir, walDir, WALFileName(seq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("stream: create wal %d: %w", seq, err)
	}
	return &walWriter{f: f, seq: seq}, nil
}

// append writes and fsyncs one record covering rows with ids
// firstID..firstID+len(rows)-1.
func (w *walWriter) append(firstID uint32, rows [][]float64, dims int) error {
	w.buf = appendWALFrame(w.buf[:0], firstID, rows, dims)
	if _, err := w.f.Write(w.buf); err != nil {
		return fmt.Errorf("stream: wal %d write: %w", w.seq, err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("stream: wal %d fsync: %w", w.seq, err)
	}
	w.maxID = firstID + uint32(len(rows)) - 1
	w.rows += len(rows)
	return nil
}

func (w *walWriter) close() error { return w.f.Close() }

// appendWALFrame appends the frame of one record to buf.
func appendWALFrame(buf []byte, firstID uint32, rows [][]float64, dims int) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(4+4+4+8*len(rows)*dims))
	buf = append(buf, 0, 0, 0, 0) // crc placeholder
	buf = binary.LittleEndian.AppendUint32(buf, firstID)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rows)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(dims))
	for _, row := range rows {
		for _, v := range row {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(buf[start+8:]))
	return buf
}

// walRecord is one replayed record.
type walRecord struct {
	firstID uint32
	rows    [][]float64
}

// readWALFile replays one log file, stopping cleanly at a torn tail.
// It returns the records in append order.
func readWALFile(path string, dims int) ([]walRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("stream: read wal: %w", err)
	}
	return parseWAL(data, dims)
}

// parseWAL is readWALFile on the file's bytes: the records of a store of
// dims columns up to the first torn frame, or an error naming the offset
// of a CRC-valid record the format does not allow.
func parseWAL(data []byte, dims int) ([]walRecord, error) {
	var recs []walRecord
	for off := 0; off < len(data); {
		if off+8 > len(data) {
			break // torn frame header
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if off+8+n > len(data) {
			break // torn payload
		}
		payload := data[off+8 : off+8+n]
		if crc32.ChecksumIEEE(payload) != crc {
			break // torn or corrupt: nothing after it was acknowledged
		}
		if len(payload) < 12 {
			return nil, fmt.Errorf("stream: wal record at %d too short (%d bytes)", off, len(payload))
		}
		firstID := binary.LittleEndian.Uint32(payload)
		count := int(binary.LittleEndian.Uint32(payload[4:]))
		rdims := int(binary.LittleEndian.Uint32(payload[8:]))
		if rdims != dims {
			return nil, fmt.Errorf("stream: wal record has %d dims, store has %d", rdims, dims)
		}
		if uint64(len(payload)) != 12+8*uint64(count)*uint64(dims) {
			return nil, fmt.Errorf("stream: wal record at %d: %d payload bytes for %d rows", off, len(payload), count)
		}
		if count == 0 {
			return nil, fmt.Errorf("stream: wal record at %d holds no rows", off)
		}
		if uint64(firstID)+uint64(count) > math.MaxUint32+1 {
			return nil, fmt.Errorf("stream: wal record at %d: %d rows from id %d run past id %d", off, count, firstID, uint32(math.MaxUint32))
		}
		rows := make([][]float64, count)
		p := 12
		for i := range rows {
			row := make([]float64, dims)
			for d := range row {
				row[d] = math.Float64frombits(binary.LittleEndian.Uint64(payload[p:]))
				p += 8
			}
			rows[i] = row
		}
		recs = append(recs, walRecord{firstID: firstID, rows: rows})
		off += 8 + n
	}
	return recs, nil
}

// replayWAL reads every log generation under dir in order, as Open replays
// them, and hands each file's records to visit with the file's seq and
// path. The rows at or above flushed must continue from flushed with no
// gap; a gap or a record readWALFile refuses fails the replay, naming the
// generation. It returns the id after the last replayed row (flushed when
// the log holds none above it).
func replayWAL(dir string, dims int, flushed uint32, visit func(seq int, path string, recs []walRecord) error) (uint32, error) {
	seqs, err := walSeqs(dir)
	if err != nil {
		return 0, err
	}
	next := flushed
	for _, seq := range seqs {
		path := filepath.Join(dir, walDir, WALFileName(seq))
		recs, err := readWALFile(path, dims)
		if err != nil {
			return 0, fmt.Errorf("stream: wal %d: %w", seq, err)
		}
		for _, rec := range recs {
			for i := range rec.rows {
				id := rec.firstID + uint32(i)
				if id < flushed {
					continue
				}
				if id != next {
					return 0, fmt.Errorf("stream: wal %d: row id %d, expected %d (gap in the log)", seq, id, next)
				}
				next++
			}
		}
		if err := visit(seq, path, recs); err != nil {
			return 0, err
		}
	}
	return next, nil
}

// walSeqs lists the log generations present under dir, ascending.
func walSeqs(dir string) ([]int, error) {
	entries, err := os.ReadDir(filepath.Join(dir, walDir))
	if err != nil {
		return nil, fmt.Errorf("stream: list wal: %w", err)
	}
	var seqs []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		seq, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"))
		if err != nil {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	return seqs, nil
}
