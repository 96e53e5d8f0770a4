// Package dbms is a from-scratch single-table storage engine standing in
// for MySQL as the baseline of the paper's evaluation (§4): a page-based
// heap file behind an LRU buffer pool whose capacity is capped at the
// experiment's memory budget. The active-learning baseline reads the entire
// table through the (tiny) buffer pool every iteration, which is exactly
// the exhaustive-scan cost profile the paper attributes to DBMS-backed IDE
// systems.
package dbms

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the fixed on-disk page size. 8 KiB mirrors common DBMS
// defaults (InnoDB uses 16 KiB; PostgreSQL 8 KiB).
const PageSize = 8192

// PageID addresses a page within a file.
type PageID uint32

// Slotted page layout:
//
//	header (8 bytes): slotCount uint16 | freeStart uint16 | freeEnd uint16 | flags uint16
//	records grow forward from freeStart
//	slot directory grows backward from the end: per slot, offset uint16 | length uint16
//
// A slot with length 0 is a dead (deleted) record.
const (
	pageHeaderSize = 8
	slotSize       = 4
)

// Page is an in-memory image of one slotted page. The zero-filled buffer is
// not a valid page; call initPage first.
type Page struct {
	buf [PageSize]byte
}

// initPage formats the buffer as an empty slotted page.
func (p *Page) initPage() {
	for i := range p.buf {
		p.buf[i] = 0
	}
	p.setSlotCount(0)
	p.setFreeStart(pageHeaderSize)
	p.setFreeEnd(PageSize)
}

func (p *Page) slotCount() int     { return int(binary.LittleEndian.Uint16(p.buf[0:2])) }
func (p *Page) setSlotCount(n int) { binary.LittleEndian.PutUint16(p.buf[0:2], uint16(n)) }
func (p *Page) freeStart() int     { return int(binary.LittleEndian.Uint16(p.buf[2:4])) }
func (p *Page) setFreeStart(n int) { binary.LittleEndian.PutUint16(p.buf[2:4], uint16(n)) }
func (p *Page) freeEnd() int       { return int(binary.LittleEndian.Uint16(p.buf[4:6])) }
func (p *Page) setFreeEnd(n int)   { binary.LittleEndian.PutUint16(p.buf[4:6], uint16(n)) }

// FreeSpace returns the bytes available for one more record and its slot.
func (p *Page) FreeSpace() int {
	free := p.freeEnd() - p.freeStart() - slotSize
	if free < 0 {
		return 0
	}
	return free
}

// NumSlots returns the number of slots, including dead ones.
func (p *Page) NumSlots() int { return p.slotCount() }

// Insert appends a record, returning its slot number. It fails when the
// record (plus slot) does not fit.
func (p *Page) Insert(record []byte) (int, error) {
	if len(record) == 0 {
		return 0, fmt.Errorf("dbms: refusing to insert an empty record")
	}
	if len(record) > p.FreeSpace() {
		return 0, fmt.Errorf("dbms: record of %d bytes does not fit in %d free", len(record), p.FreeSpace())
	}
	off := p.freeStart()
	copy(p.buf[off:], record)
	slot := p.slotCount()
	slotOff := p.freeEnd() - slotSize
	binary.LittleEndian.PutUint16(p.buf[slotOff:], uint16(off))
	binary.LittleEndian.PutUint16(p.buf[slotOff+2:], uint16(len(record)))
	p.setFreeStart(off + len(record))
	p.setFreeEnd(slotOff)
	p.setSlotCount(slot + 1)
	return slot, nil
}

// Record returns the bytes of a slot (aliasing the page buffer) or an error
// for invalid or dead slots.
func (p *Page) Record(slot int) ([]byte, error) {
	if slot < 0 || slot >= p.slotCount() {
		return nil, fmt.Errorf("dbms: slot %d out of range [0,%d)", slot, p.slotCount())
	}
	slotOff := PageSize - (slot+1)*slotSize
	off := int(binary.LittleEndian.Uint16(p.buf[slotOff:]))
	length := int(binary.LittleEndian.Uint16(p.buf[slotOff+2:]))
	if length == 0 {
		return nil, fmt.Errorf("dbms: slot %d is dead", slot)
	}
	if off < pageHeaderSize || off+length > PageSize {
		return nil, fmt.Errorf("dbms: slot %d points outside the page (off %d len %d)", slot, off, length)
	}
	return p.buf[off : off+length], nil
}
