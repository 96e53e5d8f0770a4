package dbms

import (
	"fmt"
	"io"
	"os"

	"github.com/uei-db/uei/internal/iothrottle"
)

// Pager performs raw page I/O against one file, metering reads through the
// shared bandwidth limiter. It has no cache; BufferPool sits on top.
type Pager struct {
	f       *os.File
	pages   int
	limiter *iothrottle.Limiter
	// readOnly guards against writes after Open (stores are immutable once
	// built, like the chunk store).
	readOnly bool
}

// CreatePager creates a new, empty page file, truncating any existing one.
func CreatePager(path string, limiter *iothrottle.Limiter) (*Pager, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dbms: create page file %s: %w", path, err)
	}
	return &Pager{f: f, limiter: limiter}, nil
}

// OpenPager opens an existing page file read-only.
func OpenPager(path string, limiter *iothrottle.Limiter) (*Pager, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dbms: open page file %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("dbms: stat page file %s: %w", path, err)
	}
	if st.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("dbms: page file %s has size %d, not a multiple of %d", path, st.Size(), PageSize)
	}
	return &Pager{f: f, pages: int(st.Size() / PageSize), limiter: limiter, readOnly: true}, nil
}

// NumPages returns the number of pages in the file.
func (p *Pager) NumPages() int { return p.pages }

// AllocatePage appends a fresh page and returns its id. Only valid on
// writable pagers.
func (p *Pager) AllocatePage() (PageID, error) {
	if p.readOnly {
		return 0, fmt.Errorf("dbms: allocate on read-only pager")
	}
	id := PageID(p.pages)
	p.pages++
	return id, nil
}

// ReadPage fills dst with the page's on-disk image, billing the read.
func (p *Pager) ReadPage(id PageID, dst *Page) error {
	if int(id) >= p.pages {
		return fmt.Errorf("dbms: page %d out of range [0,%d)", id, p.pages)
	}
	p.limiter.Acquire(PageSize)
	n, err := p.f.ReadAt(dst.buf[:], int64(id)*PageSize)
	if err != nil && err != io.EOF {
		return fmt.Errorf("dbms: read page %d: %w", id, err)
	}
	if n != PageSize {
		return fmt.Errorf("dbms: short read of page %d: %d bytes", id, n)
	}
	return nil
}

// WritePage persists the page image. Only valid on writable pagers.
func (p *Pager) WritePage(id PageID, src *Page) error {
	if p.readOnly {
		return fmt.Errorf("dbms: write on read-only pager")
	}
	if int(id) >= p.pages {
		return fmt.Errorf("dbms: page %d out of range [0,%d)", id, p.pages)
	}
	if _, err := p.f.WriteAt(src.buf[:], int64(id)*PageSize); err != nil {
		return fmt.Errorf("dbms: write page %d: %w", id, err)
	}
	return nil
}

// Sync flushes the file to stable storage.
func (p *Pager) Sync() error {
	if p.readOnly {
		return nil
	}
	if err := p.f.Sync(); err != nil {
		return fmt.Errorf("dbms: sync: %w", err)
	}
	return nil
}

// Close releases the file handle.
func (p *Pager) Close() error {
	if err := p.f.Close(); err != nil {
		return fmt.Errorf("dbms: close page file: %w", err)
	}
	return nil
}
