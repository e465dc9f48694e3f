package store

import (
	"fmt"
	"os"
	"sync"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/mem"
)

// pageCache is the admission-controlled read path a memory budget buys:
// PageSize pages pread into pooled buffers on miss, an LRU chain evicting
// whenever residency would cross the budget. It is the software analogue
// of a fixed BRAM/HBM capacity in front of fabric-attached storage (the
// paper's decp variants, §6): the working set lives in bounded memory no
// matter how large the segment underneath grows. The budget holds the
// segment's offset index first (fixed, charged at open and never evicted)
// and whole PageSize frames after it, the short tail page too, so a miss
// evicts at most one page. Once the budget is full a miss faults into the
// page it evicts, so steady-state reads allocate nothing.
type pageCache struct {
	f      *os.File
	size   int64
	budget int64
	st     *Stats

	mu       sync.Mutex
	pages    map[int64]*page // keyed by page index
	resident int64
	// LRU chain: head is most recent, tail next to evict. Sentinel-free,
	// nil-terminated both ways.
	head, tail *page
}

type page struct {
	idx        int64
	buf        []byte
	prev, next *page
}

// newPageCache caches f's size bytes under budget, of which fixed bytes are
// already held. The caller makes sure budget admits fixed and one frame.
func newPageCache(f *os.File, size, budget, fixed int64, st *Stats) *pageCache {
	st.budgetBytes.Set(float64(budget))
	st.residentBytes.Set(float64(fixed))
	return &pageCache{
		f: f, size: size, budget: budget, st: st,
		pages: map[int64]*page{}, resident: fixed,
	}
}

// ReadAt gathers [off, off+len(p)) from cached pages, faulting misses in
// from the file. Holding the lock across the copy keeps eviction from
// recycling a page out from under a reader; the pages are small enough
// that the copy is a memory-bandwidth blip, not a lock-hold problem.
func (c *pageCache) ReadAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > c.size {
		return fmt.Errorf("%w: cache read [%d,+%d) outside %d-byte segment", ErrCorrupt, off, len(p), c.size)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(p) > 0 {
		idx := off / PageSize
		pg, err := c.pageLocked(idx)
		if err != nil {
			return err
		}
		n := copy(p, pg.buf[off-idx*PageSize:])
		p = p[n:]
		off += int64(n)
	}
	return nil
}

// words decodes len(dst) words from the word-aligned offset off straight
// out of the cached pages, faulting misses in: a page holds whole words,
// so none straddles two. Caller holds the lock (lock/unlock), which a
// batch takes once for all its reads.
func (c *pageCache) words(dst []graph.NodeID, off int64) error {
	if off < 0 || off+int64(len(dst))*8 > c.size {
		return fmt.Errorf("%w: cache read [%d,+%d) outside %d-byte segment", ErrCorrupt, off, len(dst)*8, c.size)
	}
	for len(dst) > 0 {
		idx := off / PageSize
		pg, err := c.pageLocked(idx)
		if err != nil {
			return err
		}
		in := pg.buf[off-idx*PageSize:]
		n := min(len(dst), len(in)/8)
		decodeWords(dst[:n], in)
		dst, off = dst[n:], off+int64(n)*8
	}
	return nil
}

func (c *pageCache) lock()   { c.mu.Lock() }
func (c *pageCache) unlock() { c.mu.Unlock() }

// view never returns a window: cached pages can be evicted and recycled,
// so no zero-copy alias may escape the lock.
func (c *pageCache) view(off, n int64) []byte { return nil }

// pageLocked returns the page at idx, faulting it in on a miss. When the
// budget has no free frame the LRU page is evicted first and the miss
// reuses it — struct and buffer — instead of allocating. A failed pread
// recycles that buffer and links nothing, so the chain and the map never
// hold a page with stale or partial bytes. Caller holds c.mu.
func (c *pageCache) pageLocked(idx int64) (*page, error) {
	if pg, ok := c.pages[idx]; ok {
		c.st.cacheHits.Inc()
		c.touchLocked(pg)
		return pg, nil
	}
	c.st.cacheMisses.Inc()
	var pg *page
	if c.resident+PageSize > c.budget && c.tail != nil {
		pg = c.tail
		c.evictLocked(pg)
	} else {
		pg = &page{buf: mem.Bytes.GetOwned(PageSize, false)}
	}
	start := idx * PageSize
	pg.buf = pg.buf[:min(PageSize, c.size-start)]
	if _, err := c.f.ReadAt(pg.buf, start); err != nil {
		mem.Bytes.Recycle(pg.buf)
		c.st.residentBytes.Set(float64(c.resident))
		return nil, err
	}
	c.st.pageReads.Inc()
	c.st.readBytes.Add(int64(len(pg.buf)))
	pg.idx = idx
	c.pages[idx] = pg
	c.pushLocked(pg)
	c.resident += PageSize
	c.st.residentBytes.Set(float64(c.resident))
	return pg, nil
}

func (c *pageCache) pushLocked(pg *page) {
	pg.prev, pg.next = nil, c.head
	if c.head != nil {
		c.head.prev = pg
	}
	c.head = pg
	if c.tail == nil {
		c.tail = pg
	}
}

func (c *pageCache) unlinkLocked(pg *page) {
	if pg.prev != nil {
		pg.prev.next = pg.next
	} else {
		c.head = pg.next
	}
	if pg.next != nil {
		pg.next.prev = pg.prev
	} else {
		c.tail = pg.prev
	}
	pg.prev, pg.next = nil, nil
}

func (c *pageCache) touchLocked(pg *page) {
	if c.head == pg {
		return
	}
	c.unlinkLocked(pg)
	c.pushLocked(pg)
}

// evictLocked drops pg from the chain, the map and the resident count;
// the caller takes over pg.buf (reuses or recycles it).
func (c *pageCache) evictLocked(pg *page) {
	c.unlinkLocked(pg)
	delete(c.pages, pg.idx)
	c.resident -= PageSize
	c.st.cacheEvictions.Inc()
}

// publish sets the resident gauge to this cache's residency: Compact calls
// it once the retired generation's cache has closed and zeroed the gauge.
func (c *pageCache) publish() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.st.residentBytes.Set(float64(c.resident))
}

// Close recycles every resident page back to the pools and closes the
// file.
func (c *pageCache) Close() error {
	c.mu.Lock()
	for c.tail != nil {
		pg := c.tail
		c.evictLocked(pg)
		mem.Bytes.Recycle(pg.buf)
	}
	c.st.residentBytes.Set(0)
	c.mu.Unlock()
	return c.f.Close()
}
