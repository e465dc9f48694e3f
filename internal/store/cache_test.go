package store

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"testing"

	"lsdgnn/internal/graph"
)

// raceSlack is the extra allocations per pooled read an allocation count
// allows: none, except under -race (race_test.go).
var raceSlack float64

// TestBudgetedReadsAllocationFree: once warm, the budgeted read path
// allocates nothing per lookup even while reads miss — offset pairs are
// read into pooled scratch once per call, runs are decoded into a dst sized
// once, and a miss faults into the page it evicts. Neighbors' one
// allocation is the slice it returns.
func TestBudgetedReadsAllocationFree(t *testing.T) {
	g := testGraph(t, true)
	const budget = 2 * PageSize
	st := &Stats{}
	_, s := mustCreate(t, g, WithMemoryBudget(budget), WithStats(st))
	if seg := s.SegmentBytes(); seg < 8*budget {
		t.Fatalf("segment of %d bytes is under 8x the %d-byte budget", seg, budget)
	}
	// Vertices spread over the whole segment, each with a run long enough
	// that growing dst one append at a time would reallocate.
	var vs []graph.NodeID
	for v := int64(0); v < g.NumNodes(); v += 7 {
		if len(g.Neighbors(graph.NodeID(v))) >= 3 {
			vs = append(vs, graph.NodeID(v))
		}
	}
	next := 0
	vertex := func() graph.NodeID {
		next++
		return vs[next%len(vs)]
	}
	count := func(name string, allowed float64, f func()) {
		t.Helper()
		f() // warm the pools and size dst
		misses := st.CacheMisses()
		if a := testing.AllocsPerRun(50, f); a > allowed {
			t.Errorf("%s: %.0f allocations per call once warm, want at most %.0f", name, a, allowed)
		}
		if st.CacheMisses() == misses {
			t.Errorf("%s: no cache misses while counting, so no eviction was exercised", name)
		}
	}
	// No collection while counting: a GC would empty the pools and charge
	// their refill to the read path.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()

	// A neighbour call takes one pooled buffer (its offset pairs), however
	// many IDs it reads; an attribute lookup takes one per read.
	count("Neighbors", 1+raceSlack, func() { s.Neighbors(vertex()) })
	attr := make([]float32, 0, g.AttrLen())
	count("Attr", raceSlack, func() { s.Attr(attr[:0], vertex()) })
	lists := make([][]graph.NodeID, len(vs))
	count("NeighborsBatch", raceSlack, func() {
		if err := s.NeighborsBatch(ctx, lists, vs); err != nil {
			t.Fatal(err)
		}
	})
	attrs := make([]float32, len(vs)*g.AttrLen())
	count("AttrsBatch", raceSlack*float64(len(vs)), func() {
		if err := s.AttrsBatch(ctx, attrs, vs); err != nil {
			t.Fatal(err)
		}
	})
	for i, v := range vs {
		if !equalIDs(lists[i], g.Neighbors(v)) {
			t.Fatalf("node %d neighbors: got %v want %v", v, lists[i], g.Neighbors(v))
		}
		if got, want := attrs[i*g.AttrLen():][:g.AttrLen()], g.Attr(nil, v); !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d attrs: got %v want %v", v, got, want)
		}
	}
}

// TestPageCacheFaultsOnePagePerMiss: a miss preads the one PageSize page it
// needs and nothing more. Page reads equal misses, and read bytes equal
// page reads times PageSize, less the tail page's shortfall each time the
// segment's short last page was faulted in.
func TestPageCacheFaultsOnePagePerMiss(t *testing.T) {
	g := testGraph(t, true)
	st := &Stats{}
	_, s := mustCreate(t, g, WithMemoryBudget(4*PageSize), WithStats(st))
	rng := rand.New(rand.NewSource(3))
	var attr []float32
	for range 2000 {
		v := graph.NodeID(rng.Int63n(g.NumNodes()))
		s.Neighbors(v)
		attr = s.Attr(attr[:0], v)
	}
	// The last vertex's attributes end the segment: the tail page is read.
	s.Attr(attr[:0], graph.NodeID(g.NumNodes()-1))

	reads, misses, read := st.pageReads.Value(), st.CacheMisses(), st.readBytes.Value()
	if reads == 0 || reads != misses {
		t.Fatalf("%d page reads for %d cache misses, want one per miss", reads, misses)
	}
	short := reads*PageSize - read
	if tail := s.SegmentBytes() % PageSize; tail == 0 {
		if short != 0 {
			t.Fatalf("read %d bytes in %d page reads, want %d", read, reads, reads*PageSize)
		}
	} else if gap := PageSize - tail; short < gap || short%gap != 0 {
		t.Fatalf("read %d bytes in %d page reads: not whole %d-byte pages plus short %d-byte tail pages",
			read, reads, PageSize, tail)
	}
}

// TestPageCacheFailedReadLinksNothing: a miss evicts to make room before it
// preads, and when the pread fails nothing is linked in the failed page's
// place — every mapped page is on the LRU chain and the reverse, residency
// is the chain's bytes — while the pages that stayed keep serving.
func TestPageCacheFailedReadLinksNothing(t *testing.T) {
	data := make([]byte, 8*PageSize+100)
	for i := range data {
		data[i] = byte(i * 7)
	}
	path := filepath.Join(t.TempDir(), "seg")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	st := &Stats{}
	c := newPageCache(f, int64(len(data)), 2*PageSize, st)
	defer c.Close()
	p := make([]byte, 16)
	read := func(off int64) error {
		if err := c.ReadAt(p, off); err != nil {
			return err
		}
		if !bytes.Equal(p, data[off:off+16]) {
			t.Fatalf("read at %d: got %x want %x", off, p, data[off:off+16])
		}
		return nil
	}
	for _, off := range []int64{0, PageSize + 5, 9} { // page 1 ends up LRU
		if err := read(off); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	if err := read(5 * PageSize); err == nil {
		t.Fatal("read from a closed file succeeded")
	}
	assertChain(t, c)
	if _, ok := c.pages[5]; ok || len(c.pages) != 1 || c.head.idx != 0 {
		t.Fatalf("after the failed fault the cache holds %d pages, head %d; want only page 0", len(c.pages), c.head.idx)
	}
	if ev := st.cacheEvictions.Value(); ev != 1 {
		t.Fatalf("%d evictions, want the 1 that made room", ev)
	}
	if err := read(20); err != nil {
		t.Fatalf("cached page stopped serving: %v", err)
	}
}

// TestCompactBypassesPageCache: compacting a budgeted store streams the
// base segment through a mapping of its own, so the scan faults no page
// into the cache, and the next generation still reads back right through a
// cache under budget.
func TestCompactBypassesPageCache(t *testing.T) {
	g := testGraph(t, true)
	d := graph.NewDynamic(g)
	const budget = 2 * PageSize
	st := &Stats{}
	_, s := mustCreate(t, g, WithMemoryBudget(budget), WithStats(st))
	if seg := s.SegmentBytes(); seg < 8*budget {
		t.Fatalf("segment of %d bytes is under 8x the %d-byte budget", seg, budget)
	}
	for _, e := range [][2]graph.NodeID{{1, 2}, {499, 0}, {250, 10}} {
		if err := d.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
		if err := s.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	s.Neighbors(7) // something resident for the scan to evict
	misses := st.CacheMisses()
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	// Closing the retired generation drains its cache, so evictions move;
	// a scan through the cache would show as misses.
	if m := st.CacheMisses(); m != misses {
		t.Fatalf("compaction faulted %d pages through the cache", m-misses)
	}
	var attr []float32
	for v := graph.NodeID(0); int64(v) < g.NumNodes(); v++ {
		if got, want := s.Neighbors(v), d.Neighbors(v); !equalIDs(got, want) {
			t.Fatalf("node %d after compaction: got %v want %v", v, got, want)
		}
		if attr = s.Attr(attr[:0], v); !reflect.DeepEqual(attr, g.Attr(nil, v)) {
			t.Fatalf("node %d attrs after compaction: got %v want %v", v, attr, g.Attr(nil, v))
		}
	}
	if r := s.Resident(); r > budget {
		t.Fatalf("resident %d exceeds budget %d", r, budget)
	}
}

// assertChain checks the page cache's structure: the LRU chain is doubly
// linked, holds exactly the mapped pages, and sums to the resident count.
func assertChain(t *testing.T, c *pageCache) {
	t.Helper()
	var n int
	var resident int64
	var prev *page
	for pg := c.head; pg != nil; prev, pg = pg, pg.next {
		if pg.prev != prev {
			t.Fatalf("page %d: broken back link", pg.idx)
		}
		if c.pages[pg.idx] != pg {
			t.Fatalf("page %d is on the chain but not mapped", pg.idx)
		}
		n++
		resident += int64(len(pg.buf))
	}
	if c.tail != prev || n != len(c.pages) || resident != c.resident {
		t.Fatalf("chain of %d pages (%d bytes) against %d mapped (%d resident)", n, resident, len(c.pages), c.resident)
	}
}
