package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"os"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/mem"
)

// The immutable CSR segment format (little endian). One file per
// generation, laid out for sequential adjacency scans: fixed-width offsets
// first (so any vertex's edge range is two 8-byte reads at a computed
// address), then the neighbor runs in vertex order (so a frontier sorted
// by vertex ID walks the file forward — the access pattern Dann et al.
// show graph accelerators want), then the attribute pages.
//
//	header (96 bytes, CRC-protected):
//	  0  magic "LSDS"        4  version u32       8  flags u32
//	 12  attrLen u32        16  generation u64   24  numNodes u64
//	 32  numEdges u64       40  attrSeed u64     48  offTable u64
//	 56  edgeTable u64      64  attrTable u64    72  fileSize u64
//	 80  offCRC u32         84  edgeCRC u32      88  attrCRC u32
//	 92  headerCRC u32 (crc32 of bytes [0,92))
//	offsets:  (numNodes+1) × u64    edge-array index per vertex
//	edges:    numEdges × u64        neighbor runs, vertex order
//	attrs:    numNodes × attrLen × f32   only when flagMaterialized
//
// The header CRC is verified at open; the per-section CRCs are verified
// on demand by Verify (a full-file streaming check would defeat
// larger-than-RAM opens).
const (
	segMagic   = "LSDS"
	segVersion = 1
	headerSize = 96

	segFlagMaterialized = 1 << 0
)

// segHeader is the decoded segment header.
type segHeader struct {
	flags        uint32
	attrLen      int
	gen          uint64
	numNodes     int64
	numEdges     int64
	attrSeed     uint64
	offTable     int64
	edgeTable    int64
	attrTable    int64
	fileSize     int64
	offCRC       uint32
	edgeCRC      uint32
	attrCRC      uint32
	materialized bool
}

func (h *segHeader) encode() []byte {
	b := make([]byte, headerSize)
	copy(b, segMagic)
	le := binary.LittleEndian
	le.PutUint32(b[4:], segVersion)
	le.PutUint32(b[8:], h.flags)
	le.PutUint32(b[12:], uint32(h.attrLen))
	le.PutUint64(b[16:], h.gen)
	le.PutUint64(b[24:], uint64(h.numNodes))
	le.PutUint64(b[32:], uint64(h.numEdges))
	le.PutUint64(b[40:], h.attrSeed)
	le.PutUint64(b[48:], uint64(h.offTable))
	le.PutUint64(b[56:], uint64(h.edgeTable))
	le.PutUint64(b[64:], uint64(h.attrTable))
	le.PutUint64(b[72:], uint64(h.fileSize))
	le.PutUint32(b[80:], h.offCRC)
	le.PutUint32(b[84:], h.edgeCRC)
	le.PutUint32(b[88:], h.attrCRC)
	le.PutUint32(b[92:], crc32.ChecksumIEEE(b[:92]))
	return b
}

func decodeHeader(b []byte) (*segHeader, error) {
	if len(b) < headerSize {
		return nil, fmt.Errorf("%w: short segment header (%d bytes)", ErrCorrupt, len(b))
	}
	if string(b[:4]) != segMagic {
		return nil, fmt.Errorf("%w: bad segment magic %q", ErrCorrupt, b[:4])
	}
	le := binary.LittleEndian
	if got := le.Uint32(b[92:]); got != crc32.ChecksumIEEE(b[:92]) {
		return nil, fmt.Errorf("%w: segment header checksum mismatch", ErrCorrupt)
	}
	if v := le.Uint32(b[4:]); v != segVersion {
		return nil, fmt.Errorf("%w: unsupported segment version %d", ErrCorrupt, v)
	}
	h := &segHeader{
		flags:     le.Uint32(b[8:]),
		attrLen:   int(le.Uint32(b[12:])),
		gen:       le.Uint64(b[16:]),
		numNodes:  int64(le.Uint64(b[24:])),
		numEdges:  int64(le.Uint64(b[32:])),
		attrSeed:  le.Uint64(b[40:]),
		offTable:  int64(le.Uint64(b[48:])),
		edgeTable: int64(le.Uint64(b[56:])),
		attrTable: int64(le.Uint64(b[64:])),
		fileSize:  int64(le.Uint64(b[72:])),
		offCRC:    le.Uint32(b[80:]),
		edgeCRC:   le.Uint32(b[84:]),
		attrCRC:   le.Uint32(b[88:]),
	}
	h.materialized = h.flags&segFlagMaterialized != 0
	// Structural bounds: every section edge must land where the fixed
	// layout says it does, so a corrupt header can never alias sections,
	// and no count may wrap int64 to pass for a small file.
	if h.numNodes < 0 || h.numEdges < 0 || h.attrLen < 0 {
		return nil, fmt.Errorf("%w: negative segment dimensions", ErrCorrupt)
	}
	wantEdge, ok1 := span(headerSize, h.numNodes+1, 8)
	size, ok2 := span(wantEdge, h.numEdges, 8)
	wantAttr, ok3 := int64(0), true
	if h.materialized {
		wantAttr = size
		size, ok3 = span(size, h.numNodes, int64(h.attrLen)*4)
	}
	if !ok1 || !ok2 || !ok3 {
		return nil, fmt.Errorf("%w: segment dimensions overflow the file layout", ErrCorrupt)
	}
	if h.offTable != headerSize || h.edgeTable != wantEdge || h.attrTable != wantAttr || h.fileSize != size {
		return nil, fmt.Errorf("%w: segment section layout inconsistent", ErrCorrupt)
	}
	return h, nil
}

// span returns base + n·width and whether that fits int64. base and width
// are non-negative; a negative n (numNodes+1 wrapped) reads as at least
// 2^63 and fails against width 8.
func span(base, n, width int64) (int64, bool) {
	hi, lo := bits.Mul64(uint64(n), uint64(width))
	sum, carry := bits.Add64(lo, uint64(base), 0)
	return int64(sum), hi == 0 && carry == 0 && sum <= math.MaxInt64
}

// segSource is what the bulk loader and the compactor stream a segment
// from: an immutable CSR view. *graph.Graph satisfies it directly; the
// compactor wraps (base segment + memtable).
type segSource interface {
	NumNodes() int64
	AttrLen() int
	Materialized() bool
	AttrSeed() uint64
	Neighbors(v graph.NodeID) []graph.NodeID
	Attr(dst []float32, v graph.NodeID) []float32
}

// chunkSize is what writeSegment hands the file, and a section checksum,
// per call: a whole number of words, and far above the 64 bytes crc32
// needs to take its vector kernel.
const chunkSize = 64 << 10

// sectionWriter stages a section's words in one chunk buffer and writes
// and checksums each full chunk in one call each. A write error sticks and
// is reported by end.
type sectionWriter struct {
	w   io.Writer
	buf []byte
	crc uint32
	err error
}

func (s *sectionWriter) u64(v uint64) {
	if cap(s.buf)-len(s.buf) < 8 {
		s.flush()
	}
	s.buf = binary.LittleEndian.AppendUint64(s.buf, v)
}

func (s *sectionWriter) u32(v uint32) {
	if cap(s.buf)-len(s.buf) < 4 {
		s.flush()
	}
	s.buf = binary.LittleEndian.AppendUint32(s.buf, v)
}

func (s *sectionWriter) flush() {
	if s.err == nil {
		_, s.err = s.w.Write(s.buf)
	}
	s.crc = crc32.Update(s.crc, crc32.IEEETable, s.buf)
	s.buf = s.buf[:0]
}

// end writes what is staged and returns the section's checksum, leaving
// the writer ready for the next section.
func (s *sectionWriter) end() (uint32, error) {
	s.flush()
	sum := s.crc
	s.crc = 0
	return sum, s.err
}

// writeSegment streams src into an immutable CSR segment at path,
// fsyncing before return. The adjacency is walked twice (offsets pass,
// edges pass) so the file is written strictly forward with no in-memory
// edge staging — the property that lets the bulk loader handle graphs
// larger than RAM when the source itself streams.
func writeSegment(path string, gen uint64, src segSource) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if _, err := f.Seek(headerSize, io.SeekStart); err != nil {
		return 0, err
	}
	sw := &sectionWriter{w: f, buf: make([]byte, 0, chunkSize)}
	h := &segHeader{
		gen:      gen,
		numNodes: src.NumNodes(),
		attrLen:  src.AttrLen(),
		attrSeed: src.AttrSeed(),
		offTable: headerSize,
	}

	// Offsets pass: cumulative degrees.
	var cum int64
	sw.u64(0)
	for v := int64(0); v < h.numNodes; v++ {
		cum += int64(len(src.Neighbors(graph.NodeID(v))))
		sw.u64(uint64(cum))
	}
	h.numEdges = cum
	if h.offCRC, err = sw.end(); err != nil {
		return 0, err
	}
	h.edgeTable = h.offTable + (h.numNodes+1)*8

	// Edges pass: neighbor runs in vertex order. The source must report
	// the same adjacency both passes — a drifting source would silently
	// desynchronize offsets from runs, so the count is enforced.
	var written int64
	for v := int64(0); v < h.numNodes; v++ {
		for _, u := range src.Neighbors(graph.NodeID(v)) {
			if uint64(u) >= uint64(h.numNodes) {
				return 0, fmt.Errorf("store: edge %d→%d outside %d nodes", v, u, h.numNodes)
			}
			sw.u64(uint64(u))
			written++
		}
	}
	if written != h.numEdges {
		return 0, fmt.Errorf("store: source reported %d edges in offsets pass, %d in edges pass", h.numEdges, written)
	}
	if h.edgeCRC, err = sw.end(); err != nil {
		return 0, err
	}
	h.fileSize = h.edgeTable + h.numEdges*8

	// Attribute pages, only when the source materializes them (procedural
	// attributes are regenerated from attrSeed on read — the paper-scale
	// stand-in for attribute matrices that dwarf the structure).
	if src.Materialized() {
		h.flags |= segFlagMaterialized
		h.attrTable = h.fileSize
		buf := make([]float32, 0, h.attrLen)
		for v := int64(0); v < h.numNodes; v++ {
			buf = src.Attr(buf[:0], graph.NodeID(v))
			for _, a := range buf {
				sw.u32(math.Float32bits(a))
			}
		}
		if h.attrCRC, err = sw.end(); err != nil {
			return 0, err
		}
		h.fileSize += h.numNodes * int64(h.attrLen) * 4
	}
	if _, err := f.WriteAt(h.encode(), 0); err != nil {
		return 0, err
	}
	if err := f.Sync(); err != nil {
		return 0, err
	}
	return h.fileSize, nil
}

// reader abstracts segment byte access: mmap when unbudgeted, the
// admission-controlled page cache when a memory budget is set, plain
// pread as the portability fallback.
type reader interface {
	// ReadAt fills p from the byte range starting at off (full read or
	// error).
	ReadAt(p []byte, off int64) error
	// view returns a zero-copy window over [off, off+n) when the backing
	// supports one (mmap), nil otherwise.
	view(off, n int64) []byte
	// words decodes len(dst) little-endian words from the word-aligned
	// offset off straight into dst. It runs between lock and unlock, which
	// hold the page cache for a whole batch of reads (no-ops elsewhere).
	words(dst []graph.NodeID, off int64) error
	lock()
	unlock()
	Close() error
}

// decodeWords fills dst from the little-endian words at the head of src.
func decodeWords(dst []graph.NodeID, src []byte) {
	src = src[:len(dst)*8]
	for i := range dst {
		dst[i] = graph.NodeID(binary.LittleEndian.Uint64(src[i*8:]))
	}
}

// fileReader serves pread straight off the file — the no-cache, no-mmap
// fallback.
type fileReader struct{ f *os.File }

func (r fileReader) ReadAt(p []byte, off int64) error {
	_, err := r.f.ReadAt(p, off)
	return err
}
func (r fileReader) view(off, n int64) []byte { return nil }
func (r fileReader) words(dst []graph.NodeID, off int64) error {
	buf := mem.Bytes.Get(len(dst) * 8)
	defer mem.Bytes.Put(buf)
	if err := r.ReadAt(buf, off); err != nil {
		return err
	}
	decodeWords(dst, buf)
	return nil
}
func (r fileReader) lock()        {}
func (r fileReader) unlock()      {}
func (r fileReader) Close() error { return r.f.Close() }

// segment is an open immutable CSR segment.
type segment struct {
	*segHeader
	r  reader
	st *Stats
}

// openSegment maps or caches the segment at path according to opts.
func openSegment(path string, o options) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var hb [headerSize]byte
	if _, err := f.ReadAt(hb[:], 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: segment %s: %v", ErrCorrupt, path, err)
	}
	h, err := decodeHeader(hb[:])
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("segment %s: %w", path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if fi.Size() != h.fileSize {
		f.Close()
		return nil, fmt.Errorf("%w: segment %s is %d bytes, header says %d", ErrCorrupt, path, fi.Size(), h.fileSize)
	}
	var r reader
	if o.budget > 0 {
		r = newPageCache(f, h.fileSize, o.budget, o.stats)
	} else {
		r = newMmapReader(f, h.fileSize)
	}
	o.stats.generation.Set(float64(h.gen))
	o.stats.segmentBytes.Set(float64(h.fileSize))
	return &segment{segHeader: h, r: r, st: o.stats}, nil
}

func (s *segment) Close() error { return s.r.Close() }

// neighbors fills dst[i] with vs[i]'s adjacency: its base run, then its
// entries in frozen and in live (either map may be nil). The reader is
// held once for the call, so a budgeted segment takes the page-cache lock
// once. A first pass reads every offset pair into pooled scratch and sizes
// one arena for the lists that outgrow their dst slot; a second decodes
// every run straight out of the mapping or the cached pages. A list reuses
// dst[i]'s capacity when it fits and is carved from the fresh arena
// otherwise, so no list aliases a buffer the store reuses later. IDs
// outside the segment have no base run.
func (s *segment) neighbors(dst [][]graph.NodeID, vs []graph.NodeID, frozen, live map[graph.NodeID][]graph.NodeID) error {
	s.r.lock()
	defer s.r.unlock()
	spans := mem.IDs.Get(2 * len(vs)) // start, end per ID
	defer mem.IDs.Put(spans)
	need := 0
	for i, v := range vs {
		span := spans[2*i : 2*i+2]
		if uint64(v) >= uint64(s.numNodes) {
			span[0], span[1] = 0, 0
		} else if err := s.r.words(span, s.offTable+int64(v)*8); err != nil {
			return err
		}
		if start, end := int64(span[0]), int64(span[1]); start < 0 || end < start || end > s.numEdges {
			return fmt.Errorf("%w: vertex %d offsets [%d,%d) outside %d edges", ErrCorrupt, v, start, end, s.numEdges)
		}
		if m := int(span[1]-span[0]) + len(frozen[v]) + len(live[v]); m > cap(dst[i]) {
			need += m
		}
	}
	var arena []graph.NodeID
	if need > 0 {
		arena = make([]graph.NodeID, need)
	}
	for i, v := range vs {
		start, n := int64(spans[2*i]), int(spans[2*i+1]-spans[2*i])
		f, l := frozen[v], live[v]
		list := dst[i][:0]
		if m := n + len(f) + len(l); m > cap(list) {
			list, arena = arena[:0:m], arena[m:]
		}
		if list = list[:n]; n > 0 {
			s.st.neighborReads.Inc()
			if err := s.r.words(list, s.edgeTable+start*8); err != nil {
				return err
			}
		}
		dst[i] = append(append(list, f...), l...)
	}
	return nil
}

// appendAttr appends v's attribute vector to dst: a page-cache or mmap
// read for materialized segments, the deterministic procedural function
// otherwise (bit-identical to graph.Graph.Attr).
func (s *segment) appendAttr(dst []float32, v graph.NodeID) ([]float32, error) {
	if uint64(v) >= uint64(s.numNodes) {
		for i := 0; i < s.attrLen; i++ {
			dst = append(dst, 0)
		}
		return dst, nil
	}
	if !s.materialized {
		return graph.ProceduralAttr(dst, s.attrSeed, s.attrLen, v), nil
	}
	n := int64(s.attrLen) * 4
	off := s.attrTable + int64(v)*n
	s.st.attrReads.Inc()
	if w := s.r.view(off, n); w != nil {
		for i := 0; i < s.attrLen; i++ {
			dst = append(dst, math.Float32frombits(binary.LittleEndian.Uint32(w[i*4:])))
		}
		return dst, nil
	}
	scratch := mem.Bytes.Get(int(n))
	defer mem.Bytes.Put(scratch)
	if err := s.r.ReadAt(scratch, off); err != nil {
		return dst, err
	}
	for i := 0; i < s.attrLen; i++ {
		dst = append(dst, math.Float32frombits(binary.LittleEndian.Uint32(scratch[i*4:])))
	}
	return dst, nil
}

// verify streams every section through its checksum — the deep integrity
// check Open deliberately skips (it would read the whole larger-than-RAM
// file). Sections are read through the segment's reader, so a budgeted
// verify stays under budget too.
func (s *segment) verify() error {
	check := func(name string, off, n int64, want uint32) error {
		crc := crc32.NewIEEE()
		buf := mem.Bytes.Get(1 << 20)
		defer mem.Bytes.Put(buf)
		for n > 0 {
			chunk := int64(len(buf))
			if n < chunk {
				chunk = n
			}
			if err := s.r.ReadAt(buf[:chunk], off); err != nil {
				return err
			}
			crc.Write(buf[:chunk])
			off += chunk
			n -= chunk
		}
		if got := crc.Sum32(); got != want {
			return fmt.Errorf("%w: %s section checksum %#x, want %#x", ErrCorrupt, name, got, want)
		}
		return nil
	}
	if err := check("offsets", s.offTable, (s.numNodes+1)*8, s.offCRC); err != nil {
		return err
	}
	if err := check("edges", s.edgeTable, s.numEdges*8, s.edgeCRC); err != nil {
		return err
	}
	if s.materialized {
		return check("attrs", s.attrTable, s.numNodes*int64(s.attrLen)*4, s.attrCRC)
	}
	return nil
}
