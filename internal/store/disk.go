package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"lsdgnn/internal/graph"
)

// ErrClosed marks an operation on a closed store.
var ErrClosed = errors.New("store: closed")

// DiskStore is the persistent graph store: an immutable CSR segment on
// disk, a WAL-backed in-memory memtable overlaying mutations (the same
// base+delta shape as graph.Dynamic, but durable), and either an mmap or
// an admission-controlled page cache underneath depending on the memory
// budget. It implements sampler.Store and cluster.Backend batch-first
// (plus the scalar accessors cluster.Backend still carries), and the
// streaming ingest path.
type DiskStore struct {
	dir  string
	opts options
	st   *Stats
	// numNodes/attrLen are invariant across generations (compaction never
	// changes the vertex space), so the shape accessors stay lock-free.
	numNodes int64
	attrLen  int

	// compactMu serializes compactions; mu guards everything below.
	compactMu sync.Mutex
	mu        sync.RWMutex
	closed    bool
	gen       uint64
	seg       *segment
	wal       *wal
	// Live memtable: mutations since the last freeze, logged to wal-<gen'>
	// where gen' is the generation the *next* compaction will commit.
	delta map[graph.NodeID][]graph.NodeID
	attrs map[graph.NodeID][]float32
	added int64
	// Frozen memtable: mutations being folded by an in-flight (or failed,
	// awaiting retry) compaction. Reads merge base + frozen + live.
	frozen      map[graph.NodeID][]graph.NodeID
	frozenAttrs map[graph.NodeID][]float32
	frozenAdded int64
}

// Create bulk-loads g into a new store directory: segment generation 1
// plus the CURRENT commit. It fails with ErrExists if path already holds
// a store.
func Create(path string, g *graph.Graph, opts ...Option) error {
	if _, err := buildOptions(opts); err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(path, currentName)); err == nil {
		return fmt.Errorf("%w: %s", ErrExists, path)
	} else if !os.IsNotExist(err) {
		return err
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		return err
	}
	tmp := filepath.Join(path, segName(1)+".tmp")
	if _, err := writeSegment(tmp, 1, g); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(path, segName(1))); err != nil {
		return err
	}
	if err := syncDir(path); err != nil {
		return err
	}
	return writeCurrent(path, 1)
}

// Open opens the store at dir, replaying the WAL into the memtable and
// truncating any torn tail. A crash at any point of a previous run —
// including mid-compaction — recovers here: the CURRENT generation's
// segment and WAL are authoritative, an orphaned next-generation WAL is
// absorbed back into the current one, and every other seg-*/wal-*/tmp
// file is crash debris that gets deleted.
func Open(dir string, opts ...Option) (*DiskStore, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	gen, err := readCurrent(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("store: no store at %s: %w", dir, err)
		}
		return nil, err
	}
	seg, err := openSegment(filepath.Join(dir, segName(gen)), o)
	if err != nil {
		return nil, err
	}
	s := &DiskStore{
		dir:      dir,
		opts:     o,
		st:       o.stats,
		numNodes: seg.numNodes,
		attrLen:  seg.attrLen,
		gen:      gen,
		seg:      seg,
		delta:    map[graph.NodeID][]graph.NodeID{},
		attrs:    map[graph.NodeID][]float32{},
	}
	w, err := openWAL(filepath.Join(dir, walName(gen)), o.sync, o.stats, s.replayEdge, s.replayAttr)
	if err != nil {
		seg.Close()
		return nil, err
	}
	s.wal = w
	// A wal-<gen+1> means a compaction opened the next generation's log
	// and crashed before committing CURRENT: its records are acked live
	// mutations. Re-log them into wal-<gen> (the authoritative log) and
	// delete the orphan.
	if err := s.absorbOrphanWAL(gen + 1); err != nil {
		s.wal.Close()
		seg.Close()
		return nil, err
	}
	s.cleanupStale()
	s.mu.Lock()
	s.updateMemtableStatsLocked()
	s.mu.Unlock()
	return s, nil
}

// replayEdge applies one recovered edge record to the memtable.
func (s *DiskStore) replayEdge(src, dst graph.NodeID) {
	s.delta[src] = append(s.delta[src], dst)
	s.added++
}

// replayAttr applies one recovered attribute record to the memtable.
func (s *DiskStore) replayAttr(v graph.NodeID, attr []float32) {
	s.attrs[v] = attr
}

// absorbOrphanWAL replays an uncommitted next-generation WAL through the
// normal logged ingest path, then removes it.
func (s *DiskStore) absorbOrphanWAL(gen uint64) error {
	path := filepath.Join(s.dir, walName(gen))
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	start := time.Now()
	var appErr error
	_, replayed, err := replayWAL(f,
		func(src, dst graph.NodeID) {
			if e := s.wal.appendEdge(src, dst); e != nil && appErr == nil {
				appErr = e
			}
			s.replayEdge(src, dst)
		},
		func(v graph.NodeID, attr []float32) {
			if e := s.wal.appendAttr(v, attr); e != nil && appErr == nil {
				appErr = e
			}
			s.replayAttr(v, attr)
		})
	f.Close()
	if err == nil {
		err = appErr
	}
	if err != nil {
		return err
	}
	s.st.walReplayNS.Add(time.Since(start).Nanoseconds())
	s.st.walReplayed.Add(replayed)
	if err := s.wal.Sync(); err != nil {
		return err
	}
	return os.Remove(path)
}

// cleanupStale removes crash debris: segments and WALs of non-current
// generations and interrupted temp files. Best-effort — anything left
// behind is re-deleted at the next Open.
func (s *DiskStore) cleanupStale() {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if name == currentName || name == segName(s.gen) || name == walName(s.gen) {
			continue
		}
		var k uint64
		if n, err := fmt.Sscanf(name, "seg-%d.lsds", &k); n == 1 && err == nil && name == segName(k) {
			os.Remove(filepath.Join(s.dir, name))
			continue
		}
		if n, err := fmt.Sscanf(name, "wal-%d.log", &k); n == 1 && err == nil && name == walName(k) {
			os.Remove(filepath.Join(s.dir, name))
			continue
		}
		if filepath.Ext(name) == ".tmp" {
			os.Remove(filepath.Join(s.dir, name))
		}
	}
}

// NumNodes returns the node count (fixed by the base segment, as in
// graph.Dynamic: dynamic node growth is modeled by pre-provisioned IDs).
func (s *DiskStore) NumNodes() int64 { return s.numNodes }

// AttrLen returns the per-node attribute vector length.
func (s *DiskStore) AttrLen() int { return s.attrLen }

// AttrBytes returns the wire size of one attribute vector.
func (s *DiskStore) AttrBytes() int { return s.attrLen * 4 }

// NumEdges returns base plus memtable edge count.
func (s *DiskStore) NumEdges() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.seg.numEdges + s.frozenAdded + s.added
}

// DeltaEdges returns the number of not-yet-compacted edges.
func (s *DiskStore) DeltaEdges() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.frozenAdded + s.added
}

// Generation returns the live segment generation.
func (s *DiskStore) Generation() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen
}

// Stats returns the store's stats block (register it with a
// stats.Registry to expose the lsdgnn_store_* series).
func (s *DiskStore) Stats() *Stats { return s.st }

// Resident returns the page cache's resident bytes (0 when unbudgeted —
// mmap residency belongs to the OS).
func (s *DiskStore) Resident() int64 { return s.st.ResidentBytes() }

// SegmentBytes returns the live segment's file size.
func (s *DiskStore) SegmentBytes() int64 { return s.st.SegmentBytes() }

// appendAttrLocked resolves v's attribute vector: live override, then
// frozen override, then base segment. Caller holds s.mu.
func (s *DiskStore) appendAttrLocked(dst []float32, v graph.NodeID) ([]float32, error) {
	if a, ok := s.attrs[v]; ok {
		return append(dst, a...), nil
	}
	if a, ok := s.frozenAttrs[v]; ok {
		return append(dst, a...), nil
	}
	return s.seg.appendAttr(dst, v)
}

// scalarFail is where the scalar accessors' failures go. They have no error
// return, and a closed store, an I/O error or corrupt offsets must reach
// their caller as a failure, never as "no neighbours" or a zero vector — so
// they panic with the wrapped error. No shard-server read comes through
// here: a server reads through NeighborsBatch and AttrsBatch, whose errors
// come back as sub rejections.
func scalarFail(v graph.NodeID, err error) {
	panic(fmt.Errorf("store: read of node %d: %w", v, err))
}

// Neighbors returns v's live adjacency (base + memtable): NeighborsBatch
// for one ID. The slice is freshly allocated and the store keeps no
// reference to it (the cluster.Backend contract).
func (s *DiskStore) Neighbors(v graph.NodeID) []graph.NodeID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		scalarFail(v, ErrClosed)
	}
	var out [1][]graph.NodeID
	if err := s.seg.neighbors(out[:], []graph.NodeID{v}, s.frozen, s.delta); err != nil {
		scalarFail(v, err)
	}
	return out[0]
}

// Attr appends v's live attribute vector to dst.
func (s *DiskStore) Attr(dst []float32, v graph.NodeID) []float32 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		scalarFail(v, ErrClosed)
	}
	out, err := s.appendAttrLocked(dst, v)
	if err != nil {
		scalarFail(v, err)
	}
	return out
}

// NeighborsBatch implements sampler.Store and cluster.Backend: live
// adjacency (base run, then the frozen and live memtables) for every
// requested vertex, under one store lock and one page-cache lock. A list
// reuses dst[i]'s capacity when it fits; the rest share one fresh
// allocation per call, which the store never touches again.
func (s *DiskStore) NeighborsBatch(ctx context.Context, dst [][]graph.NodeID, vs []graph.NodeID) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	return s.seg.neighbors(dst, vs, s.frozen, s.delta)
}

// AttrsBatch implements sampler.Store: attribute vectors packed row-major
// into dst (len(vs) × AttrLen). A procedural segment generates the whole
// request in one graph.ProceduralAttrs call, IDs outside the segment read
// as zeros, and memtable overrides (live, then frozen) replace their rows
// after; a materialized segment reads each vector through the page cache.
func (s *DiskStore) AttrsBatch(ctx context.Context, dst []float32, vs []graph.NodeID) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	al := s.attrLen
	if s.seg.materialized {
		for i, v := range vs {
			if _, err := s.appendAttrLocked(dst[i*al:i*al], v); err != nil {
				return err
			}
		}
		return nil
	}
	graph.ProceduralAttrs(dst, s.seg.attrSeed, al, vs)
	for i, v := range vs {
		row := dst[i*al : (i+1)*al]
		if uint64(v) >= uint64(s.numNodes) {
			clear(row)
		} else if a, ok := s.attrs[v]; ok {
			copy(row, a)
		} else if a, ok := s.frozenAttrs[v]; ok {
			copy(row, a)
		}
	}
	return nil
}

// AddEdge logs and applies one directed edge — durable per the store's
// SyncMode before it becomes visible.
func (s *DiskStore) AddEdge(src, dst graph.NodeID) error {
	if uint64(src) >= uint64(s.numNodes) || uint64(dst) >= uint64(s.numNodes) {
		return fmt.Errorf("store: edge (%d,%d) out of range [0,%d)", src, dst, s.numNodes)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.wal.appendEdge(src, dst); err != nil {
		return err
	}
	s.delta[src] = append(s.delta[src], dst)
	s.added++
	s.updateMemtableStatsLocked()
	return nil
}

// SetAttr logs and applies an attribute override for v.
func (s *DiskStore) SetAttr(v graph.NodeID, attr []float32) error {
	if uint64(v) >= uint64(s.numNodes) {
		return fmt.Errorf("store: node %d out of range [0,%d)", v, s.numNodes)
	}
	if len(attr) != s.attrLen {
		return fmt.Errorf("store: attr length %d, want %d", len(attr), s.attrLen)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.wal.appendAttr(v, attr); err != nil {
		return err
	}
	cp := make([]float32, len(attr))
	copy(cp, attr)
	s.attrs[v] = cp
	s.updateMemtableStatsLocked()
	return nil
}

// Sync forces buffered WAL appends to durable media (meaningful under
// SyncOS; a no-op gain under SyncAlways).
func (s *DiskStore) Sync() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	return s.wal.Sync()
}

// Verify streams every segment section through its checksum.
func (s *DiskStore) Verify() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	return s.seg.verify()
}

// updateMemtableStatsLocked refreshes the memtable gauges. Caller holds
// s.mu for writing.
func (s *DiskStore) updateMemtableStatsLocked() {
	edges := s.added + s.frozenAdded
	attrs := int64(len(s.attrs) + len(s.frozenAttrs))
	s.st.memtableEdges.Set(float64(edges))
	s.st.memtableAttrs.Set(float64(attrs))
	s.st.memtableBytes.Set(float64(edges*16 + attrs*int64(s.attrLen)*4))
}

// compactSource streams (base segment + frozen memtable) as the next
// generation's CSR. Merged adjacency is sorted, matching the semantics of
// graph.Builder (and therefore graph.Dynamic.Compact) so on-disk and
// in-memory stores stay byte-identical across compactions.
type compactSource struct {
	seg         *segment
	frozen      map[graph.NodeID][]graph.NodeID
	frozenAttrs map[graph.NodeID][]float32
	nbuf        []graph.NodeID
	abuf        []float32
	err         error
}

func (c *compactSource) NumNodes() int64  { return c.seg.numNodes }
func (c *compactSource) AttrLen() int     { return c.seg.attrLen }
func (c *compactSource) AttrSeed() uint64 { return c.seg.attrSeed }

// Materialized reports whether the new segment needs an attribute
// section: a procedural base stays procedural unless overrides force
// materialization.
func (c *compactSource) Materialized() bool {
	return c.seg.materialized || len(c.frozenAttrs) > 0
}

func (c *compactSource) Neighbors(v graph.NodeID) []graph.NodeID {
	lists := [1][]graph.NodeID{c.nbuf[:0]}
	if err := c.seg.neighbors(lists[:], []graph.NodeID{v}, c.frozen, nil); err != nil {
		c.err = err
		return nil
	}
	c.nbuf = lists[0]
	if len(c.frozen[v]) > 0 {
		slices.Sort(c.nbuf)
	}
	return c.nbuf
}

func (c *compactSource) Attr(dst []float32, v graph.NodeID) []float32 {
	if a, ok := c.frozenAttrs[v]; ok {
		return append(dst, a...)
	}
	c.abuf = c.abuf[:0]
	out, err := c.seg.appendAttr(c.abuf, v)
	if err != nil {
		c.err = err
		for i := len(out); i < c.seg.attrLen; i++ {
			out = append(out, 0)
		}
	}
	c.abuf = out
	return append(dst, out...)
}

// Compact folds the memtable into a new segment generation: freeze the
// live memtable (mutations keep flowing into a fresh one, logged to the
// next generation's WAL), stream base+frozen into seg-<gen+1>, commit by
// CURRENT rename, then delete the retired generation's files. Reads are
// never blocked for longer than a pointer swap. A failed compaction
// leaves the frozen memtable serving reads and is retried by the next
// Compact call; a crash anywhere recovers at Open.
func (s *DiskStore) Compact() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	start := time.Now()

	// Freeze (or adopt a previous failed attempt's freeze).
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	oldGen := s.gen
	newGen := oldGen + 1
	if s.frozen == nil {
		w, err := openWAL(filepath.Join(s.dir, walName(newGen)), s.opts.sync, s.st,
			func(graph.NodeID, graph.NodeID) {}, func(graph.NodeID, []float32) {})
		if err != nil {
			s.mu.Unlock()
			return err
		}
		oldWAL := s.wal
		s.wal = w
		s.frozen, s.delta = s.delta, map[graph.NodeID][]graph.NodeID{}
		s.frozenAttrs, s.attrs = s.attrs, map[graph.NodeID][]float32{}
		s.frozenAdded, s.added = s.added, 0
		s.mu.Unlock()
		// The retired log must survive on disk until the CURRENT commit
		// (crash recovery replays it), but no writer touches it again.
		if err := oldWAL.Close(); err != nil {
			return err
		}
	} else {
		s.mu.Unlock()
	}

	// Stream base + frozen into the next generation. The frozen maps are
	// immutable from here on, so no lock is held across the (long) write.
	// A budgeted base is streamed through a mapping of its own, not the
	// page cache: an in-order scan gains nothing from small cached pages
	// and would evict the readers' working set.
	base := s.seg
	if s.opts.budget > 0 {
		o := s.opts
		o.budget = 0
		var err error
		if base, err = openSegment(filepath.Join(s.dir, segName(oldGen)), o); err != nil {
			return err
		}
	}
	src := &compactSource{seg: base, frozen: s.frozen, frozenAttrs: s.frozenAttrs}
	tmp := filepath.Join(s.dir, segName(newGen)+".tmp")
	_, err := writeSegment(tmp, newGen, src)
	if base != s.seg {
		base.Close()
	}
	if err == nil {
		err = src.err
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	segPath := filepath.Join(s.dir, segName(newGen))
	if err := os.Rename(tmp, segPath); err != nil {
		return err
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	newSeg, err := openSegment(segPath, s.opts)
	if err != nil {
		return err
	}

	// Commit: CURRENT rename is the atomic point, then swap under lock.
	s.mu.Lock()
	if err := writeCurrent(s.dir, newGen); err != nil {
		s.mu.Unlock()
		newSeg.Close()
		return err
	}
	oldSeg := s.seg
	s.seg = newSeg
	s.gen = newGen
	s.frozen, s.frozenAttrs, s.frozenAdded = nil, nil, 0
	s.updateMemtableStatsLocked()
	s.mu.Unlock()

	oldSeg.Close()
	os.Remove(filepath.Join(s.dir, walName(oldGen)))
	os.Remove(filepath.Join(s.dir, segName(oldGen)))
	s.st.compactions.Inc()
	s.st.compactionNS.Add(time.Since(start).Nanoseconds())
	return nil
}

// Close syncs the WAL and releases the segment (munmap or cache drain).
// The memtable is not flushed — it replays from the WAL at the next Open.
func (s *DiskStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.wal.Close()
	if cerr := s.seg.Close(); err == nil {
		err = cerr
	}
	return err
}
