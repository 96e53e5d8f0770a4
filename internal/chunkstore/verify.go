package chunkstore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// VerifyError is the first broken invariant Verify met: the chunk file it
// is about (empty when it concerns a whole dimension) and the manifest
// field the chunks contradict — "bytes", "dim", "entries", "row_refs",
// "min_value", "max_value", "row_count" — or "order" for values (or a
// posting's row ids) that do not ascend, "rows" for a row id out of range or
// posted twice on a dimension, and "file" for a chunk that cannot be read or
// decoded at all.
type VerifyError struct {
	File  string
	Field string
	Err   error
}

func (e *VerifyError) Error() string {
	if e.File == "" {
		return fmt.Sprintf("chunkstore: verify: %s: %v", e.Field, e.Err)
	}
	return fmt.Sprintf("chunkstore: verify: chunk %s: %s: %v", e.File, e.Field, e.Err)
}

func (e *VerifyError) Unwrap() error { return e.Err }

// Verify checks offline what the read paths take on trust from the
// manifest: every chunk file has the recorded size, decodes to the recorded
// entry and row-id counts and value range, values ascend strictly across
// each dimension's chunk sequence, and every dimension posts each row id
// below RowCount exactly once. It reads the whole store once through
// ReadChunksOrdered and returns the first violation as a *VerifyError.
func Verify(ctx context.Context, s *Store) error {
	for _, metas := range s.manifest.Chunks {
		for _, m := range metas {
			fi, err := os.Stat(filepath.Join(s.dir, m.File))
			if err != nil {
				return &VerifyError{m.File, "file", err}
			}
			if fi.Size() != m.Bytes {
				return &VerifyError{m.File, "bytes", fmt.Errorf("file is %d bytes, manifest says %d", fi.Size(), m.Bytes)}
			}
		}
	}
	n := s.RowCount()
	seen := make([]bool, n)
	for d, metas := range s.manifest.Chunks {
		clear(seen)
		visited, posted := 0, 0
		var last float64
		err := s.ReadChunksOrdered(ctx, metas, func(m ChunkMeta, p Postings) error {
			fail := func(field, format string, args ...any) error {
				return &VerifyError{m.File, field, fmt.Errorf(format, args...)}
			}
			// The read held the header's counts to the manifest's, which
			// has at least one entry, and the payload to the header.
			entries := len(p.Values)
			if v := p.Values[0]; v != m.MinValue {
				return fail("min_value", "first value %g, manifest says %g", v, m.MinValue)
			}
			if v := p.Values[entries-1]; v != m.MaxValue {
				return fail("max_value", "last value %g, manifest says %g", v, m.MaxValue)
			}
			// The decoder refused values out of order inside the chunk; what
			// is left is the step from the chunk before.
			if visited > 0 && !(p.Values[0] > last) {
				return fail("order", "entry 0 value %g does not ascend from %g", p.Values[0], last)
			}
			last = p.Values[entries-1]
			for _, id := range p.Rows {
				if int(id) >= n {
					return fail("rows", "row %d out of range [0,%d)", id, n)
				}
				if seen[id] {
					return fail("rows", "row %d posted twice on dimension %d", id, d)
				}
				seen[id] = true
			}
			visited++
			posted += len(p.Rows)
			return nil
		})
		var ve *VerifyError
		var hm *headerMismatch
		switch {
		case errors.As(err, &ve):
			return ve
		case err != nil && ctx.Err() != nil:
			return err
		case errors.As(err, &hm):
			return &VerifyError{metas[visited].File, hm.field, err}
		case errors.Is(err, errUnordered):
			return &VerifyError{metas[visited].File, "order", err}
		case err != nil:
			// Chunks are delivered in order, so the one that failed to read
			// is the one after the last visited.
			return &VerifyError{metas[visited].File, "file", err}
		case posted != n:
			return &VerifyError{"", "row_count", fmt.Errorf("dimension %d posts %d rows, manifest says %d", d, posted, n)}
		}
	}
	return nil
}
