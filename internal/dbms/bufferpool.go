package dbms

import (
	"container/list"
	"fmt"
)

// BufferPool caches pages in a fixed number of frames with LRU replacement
// and pin counting. The experiments size it from the memory budget, so a
// full table scan over a table 100x the pool size churns every frame —
// the physical behaviour that makes the DBMS baseline slow out-of-core.
type BufferPool struct {
	pager  *Pager
	frames []frame
	// table maps a resident page to its frame index.
	table map[PageID]int
	// lru lists unpinned frame indexes, least recently used at the front.
	lru *list.List
	// lruElem[i] is frame i's element in lru, nil while pinned.
	lruElem []*list.Element

	hits, misses, evictions int64
}

type frame struct {
	page  Page
	id    PageID
	pins  int
	dirty bool
	used  bool
}

// NewBufferPool creates a pool of capacity frames over the pager.
func NewBufferPool(pager *Pager, capacity int) (*BufferPool, error) {
	if pager == nil {
		return nil, fmt.Errorf("dbms: nil pager")
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("dbms: buffer pool capacity %d must be positive", capacity)
	}
	return &BufferPool{
		pager:   pager,
		frames:  make([]frame, capacity),
		table:   make(map[PageID]int, capacity),
		lru:     list.New(),
		lruElem: make([]*list.Element, capacity),
	}, nil
}

// Fetch pins the page and returns a pointer into the pool's frame. The
// caller must Unpin it. The returned *Page is invalidated by eviction after
// unpinning; do not retain it.
func (bp *BufferPool) Fetch(id PageID) (*Page, error) {
	if idx, ok := bp.table[id]; ok {
		f := &bp.frames[idx]
		f.pins++
		if bp.lruElem[idx] != nil {
			bp.lru.Remove(bp.lruElem[idx])
			bp.lruElem[idx] = nil
		}
		bp.hits++
		return &f.page, nil
	}
	bp.misses++
	idx, err := bp.victim()
	if err != nil {
		return nil, err
	}
	f := &bp.frames[idx]
	if f.used {
		if f.dirty {
			if err := bp.pager.WritePage(f.id, &f.page); err != nil {
				return nil, err
			}
		}
		delete(bp.table, f.id)
		bp.evictions++
	}
	if err := bp.pager.ReadPage(id, &f.page); err != nil {
		// Leave the frame unused so the pool stays consistent.
		f.used = false
		bp.lruElem[idx] = bp.lru.PushFront(idx)
		return nil, err
	}
	f.id = id
	f.pins = 1
	f.dirty = false
	f.used = true
	bp.table[id] = idx
	return &f.page, nil
}

// NewPage allocates a fresh page, pins it, and returns it zero-initialized
// as an empty slotted page.
func (bp *BufferPool) NewPage() (PageID, *Page, error) {
	id, err := bp.pager.AllocatePage()
	if err != nil {
		return 0, nil, err
	}
	idx, err := bp.victim()
	if err != nil {
		return 0, nil, err
	}
	f := &bp.frames[idx]
	if f.used {
		if f.dirty {
			if err := bp.pager.WritePage(f.id, &f.page); err != nil {
				return 0, nil, err
			}
		}
		delete(bp.table, f.id)
		bp.evictions++
	}
	f.page.initPage()
	f.id = id
	f.pins = 1
	f.dirty = true
	f.used = true
	bp.table[id] = idx
	return id, &f.page, nil
}

// victim returns a frame index to (re)use: an unused frame if any, else the
// least recently used unpinned frame, removed from the LRU list.
func (bp *BufferPool) victim() (int, error) {
	for i := range bp.frames {
		if !bp.frames[i].used {
			if bp.lruElem[i] != nil {
				bp.lru.Remove(bp.lruElem[i])
				bp.lruElem[i] = nil
			}
			return i, nil
		}
	}
	front := bp.lru.Front()
	if front == nil {
		return 0, fmt.Errorf("dbms: buffer pool exhausted: all %d frames pinned", len(bp.frames))
	}
	idx := front.Value.(int)
	bp.lru.Remove(front)
	bp.lruElem[idx] = nil
	return idx, nil
}

// Unpin releases one pin; dirty marks the page as modified so eviction
// writes it back. Unpinning to zero makes the frame evictable.
func (bp *BufferPool) Unpin(id PageID, dirty bool) error {
	idx, ok := bp.table[id]
	if !ok {
		return fmt.Errorf("dbms: unpin of non-resident page %d", id)
	}
	f := &bp.frames[idx]
	if f.pins <= 0 {
		return fmt.Errorf("dbms: unpin of unpinned page %d", id)
	}
	f.pins--
	if dirty {
		f.dirty = true
	}
	if f.pins == 0 {
		bp.lruElem[idx] = bp.lru.PushBack(idx)
	}
	return nil
}

// FlushAll writes back every dirty resident page and syncs the file.
func (bp *BufferPool) FlushAll() error {
	for i := range bp.frames {
		f := &bp.frames[i]
		if f.used && f.dirty {
			if err := bp.pager.WritePage(f.id, &f.page); err != nil {
				return err
			}
			f.dirty = false
		}
	}
	return bp.pager.Sync()
}

// Stats returns hit/miss/eviction counters.
func (bp *BufferPool) Stats() (hits, misses, evictions int64) {
	return bp.hits, bp.misses, bp.evictions
}
