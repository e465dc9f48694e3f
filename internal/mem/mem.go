// Package mem is the hot path's buffer discipline: size-classed,
// sync.Pool-backed free lists for the slice shapes the sample → pipeline
// → pack → codec chain churns (node-ID vectors, attribute floats, wire
// bytes, adjacency list-of-lists), plus a per-batch region allocator with
// an explicit Release. It is the software stand-in for the paper's
// on-chip buffering (§4.2): the AxE engine never allocates per request —
// every frontier, sample buffer, and frame lives in preallocated BRAM —
// and this package gives the Go reproduction the same steady-state: after
// warm-up, a sampling batch touches only recycled memory.
//
// Ownership is explicit and two-tiered:
//
//   - Scratch (Get/Put) never escapes the subsystem that took it. Every
//     Get is balanced by a Put on all paths, so the outstanding gauge
//     returns to zero whenever the hot path is idle — the leak-check
//     TestMains of the packages on the hot path assert exactly that.
//   - Owned buffers (GetOwned) back results handed to callers: a Region's
//     segments, recycled by releasing the region (sampler.Result.Release),
//     and wire frames, recycled by whoever holds them. A caller that never
//     recycles simply donates the buffers to the GC — correctness never
//     depends on it, only steady-state allocation rate does.
//
// Nothing in this package zeroes on Put; buffers whose consumers rely on
// zero values (attribute vectors with degraded-store zero-fill semantics)
// must be taken through the *Zeroed variants.
package mem

import (
	"sync"
	"sync/atomic"

	"lsdgnn/internal/graph"
)

// Size classes are powers of two in elements, 64 .. 2Mi. Below the
// smallest class a request still gets the 64-element buffer; above the
// largest the request falls through to the allocator (counted as
// oversize) — a frontier that big is workload misconfiguration, not a
// pooling problem.
const (
	minClassBits = 6
	maxClassBits = 21
	numClasses   = maxClassBits - minClassBits + 1
)

// classFor returns the free-list index whose capacity holds n elements,
// or -1 when n exceeds the largest class.
func classFor(n int) int {
	if n > 1<<maxClassBits {
		return -1
	}
	c := 0
	for (1 << (minClassBits + c)) < n {
		c++
	}
	return c
}

// item boxes a slice header for the free lists. sync.Pool traffics in
// interfaces, and a bare []T crossing that boundary re-allocates its
// header on every Put; a *item crosses as a pointer, allocation-free, and
// the boxes themselves cycle through a spare list so the steady state
// allocates neither buffers nor headers.
type item[T any] struct{ s []T }

// Pool is one element type's set of size-classed free lists. The zero
// value is not usable; construct with NewPool. All methods are safe for
// concurrent use.
type Pool[T any] struct {
	classes [numClasses]sync.Pool
	// spare holds empty *item boxes between a Get (which strips the box
	// off a buffer) and the next Put (which needs one).
	spare sync.Pool
	// clearOnPut zeroes returned buffers up to capacity before they enter
	// the free list — required for pointer-carrying element types, where a
	// parked buffer must not pin its previous contents against the GC (or
	// leak them to the next Get).
	clearOnPut bool
}

// NewPool returns an empty pool. clearOnPut must be set for element types
// that carry pointers (slices, maps, pointers) so pooled buffers cannot
// retain or leak previous contents.
func NewPool[T any](clearOnPut bool) *Pool[T] {
	return &Pool[T]{clearOnPut: clearOnPut}
}

// get is the shared checkout: a length-n slice whose contents are
// arbitrary unless zero is set.
func (p *Pool[T]) get(n int, zero bool) []T {
	c := classFor(n)
	if c < 0 {
		counters.oversize.Add(1)
		return make([]T, n)
	}
	if v := p.classes[c].Get(); v != nil {
		it := v.(*item[T])
		s := it.s[:n]
		it.s = nil
		p.spare.Put(it)
		counters.hits.Add(1)
		if zero {
			clear(s)
		}
		return s
	}
	counters.misses.Add(1)
	// A fresh class-sized buffer: zeroed by the allocator already.
	return make([]T, 1<<(minClassBits+c))[:n]
}

// put parks s back on its free list. Undersized or oversized buffers
// (grown by append, or never pool-allocated) are dropped to the GC rather
// than poisoning a class with the wrong capacity.
func (p *Pool[T]) put(s []T) bool {
	c := classFor(cap(s))
	if c < 0 || cap(s) != 1<<(minClassBits+c) {
		return false
	}
	if p.clearOnPut {
		full := s[:cap(s)]
		clear(full)
	}
	it, _ := p.spare.Get().(*item[T])
	if it == nil {
		it = new(item[T])
	}
	it.s = s[:cap(s)]
	p.classes[c].Put(it)
	return true
}

// Get checks out a length-n scratch buffer with arbitrary contents. Every
// Get must be balanced by a Put on all paths (defer it); scratch must not
// escape the caller.
func (p *Pool[T]) Get(n int) []T {
	counters.outstanding.Add(1)
	return p.get(n, false)
}

// GetZeroed is Get with the buffer zeroed, for consumers whose contract
// assumes make()-style zero fill.
func (p *Pool[T]) GetZeroed(n int) []T {
	counters.outstanding.Add(1)
	return p.get(n, true)
}

// Put returns a scratch buffer taken with Get/GetZeroed. The caller must
// not touch s afterwards.
func (p *Pool[T]) Put(s []T) {
	counters.outstanding.Add(-1)
	if p.put(s) {
		counters.puts.Add(1)
	}
}

// GetOwned checks out a buffer whose ownership leaves the library — a
// result segment handed to the caller. It is recycled only by an explicit
// Recycle (via Region.Release), so it does not count against the
// outstanding scratch gauge; the handoffs/recycled pair tracks it.
func (p *Pool[T]) GetOwned(n int, zero bool) []T {
	counters.handoffs.Add(1)
	return p.get(n, zero)
}

// Recycle returns an owned buffer to the free lists.
func (p *Pool[T]) Recycle(s []T) {
	counters.recycled.Add(1)
	p.put(s)
}

// The shared pools of the hot path's slice shapes. One set per process:
// the sampler's scratch and the frame codec's staging draw from the same
// classes, so a workload shift (bigger batches, wider fanout) rebalances
// capacity between layers for free.
var (
	// IDs pools node-ID vectors: frontiers, hop segments, fetch orders.
	IDs = NewPool[graph.NodeID](false)
	// Floats pools attribute vectors.
	Floats = NewPool[float32](false)
	// Bytes pools wire frames and codec staging.
	Bytes = NewPool[byte](false)
	// U64s pools codec lane staging.
	U64s = NewPool[uint64](false)
	// U32s pools degree/length vectors.
	U32s = NewPool[uint32](false)
	// Lists pools adjacency list-of-lists (cleared on put: entries alias
	// store-owned adjacency memory that must not be pinned or leaked).
	Lists = NewPool[[]graph.NodeID](true)
)

// counters is the process-wide "mem" stats layer state.
var counters struct {
	hits, misses, puts  atomic.Int64
	oversize            atomic.Int64
	outstanding         atomic.Int64
	handoffs, recycled  atomic.Int64
	regions, regionLive atomic.Int64
}

// Outstanding returns the scratch buffers currently checked out (Gets
// minus Puts). Idle hot paths hold zero; the per-suite leak checks assert
// it.
func Outstanding() int64 { return counters.outstanding.Load() }

// LiveRegions returns the regions created and not yet released.
func LiveRegions() int64 { return counters.regionLive.Load() }

// Region is a per-batch allocation context for owned buffers: everything
// taken through it is returned to the pools by one Release call. A Region
// is not safe for concurrent use; the buffers it hands out are ordinary
// slices with no further coupling. Release must be called at most once,
// and only when no taken buffer is referenced anymore.
type Region struct {
	ids    [][]graph.NodeID
	floats [][]float32
	lists  [][][]graph.NodeID
}

var regionPool = sync.Pool{New: func() any { return new(Region) }}

// NewRegion checks a region out of the region pool.
func NewRegion() *Region {
	counters.regions.Add(1)
	counters.regionLive.Add(1)
	return regionPool.Get().(*Region)
}

// IDs allocates a length-n node-ID buffer owned by the region.
func (r *Region) IDs(n int) []graph.NodeID {
	s := IDs.GetOwned(n, false)
	r.ids = append(r.ids, s)
	return s
}

// Floats allocates a length-n float buffer owned by the region; zero is
// the make()-equivalent fill for zero-on-degrade consumers.
func (r *Region) Floats(n int, zero bool) []float32 {
	s := Floats.GetOwned(n, zero)
	r.floats = append(r.floats, s)
	return s
}

// Lists allocates a length-n list-of-lists buffer owned by the region.
func (r *Region) Lists(n int) [][]graph.NodeID {
	s := Lists.GetOwned(n, true)
	r.lists = append(r.lists, s)
	return s
}

// Release returns every buffer the region handed out to the pools and
// parks the region for reuse. The caller must drop all references first.
func (r *Region) Release() {
	for _, s := range r.ids {
		IDs.Recycle(s)
	}
	for _, s := range r.floats {
		Floats.Recycle(s)
	}
	for _, s := range r.lists {
		Lists.Recycle(s)
	}
	// Clear the tracking entries (they must not pin recycled buffers
	// beyond the pools) but keep the tracking slices' capacity: the next
	// batch through this region appends the same three-or-four segments
	// without reallocating. Live regions compare equal under DeepEqual by
	// entry content alone, so a reused region is indistinguishable from a
	// fresh one to the parity harnesses that compare results whole.
	clear(r.ids)
	clear(r.floats)
	clear(r.lists)
	r.ids, r.floats, r.lists = r.ids[:0], r.floats[:0], r.lists[:0]
	counters.regionLive.Add(-1)
	regionPool.Put(r)
}
