package graph

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
)

// Binary graph serialization, so partition servers can load a prepared
// graph instead of regenerating it. Format (little endian):
//
//	magic "LSDG" | version u32 | flags u32 | numNodes u64 | numEdges u64 |
//	attrLen u32 | attrSeed u64 | offsets (numNodes+1 × u64) |
//	edges (numEdges × u64) | [attrs (numNodes×attrLen × f32) if materialized] |
//	crc32 of everything after the magic
//
// Each node's adjacency list, edges[offsets[v]:offsets[v+1]], is in
// ascending order, as Builder.Build leaves it, and Load refuses a file
// whose lists are not. Sampling draws neighbours by their position in the
// list, so the order is part of what a sample is: every reader of a file,
// whole or sharded, must see the same one.
const (
	ioMagic   = "LSDG"
	ioVersion = 1
	// ioHeaderSize is the header after the magic.
	ioHeaderSize = 36

	flagMaterialized = 1 << 0

	// chunkSize is what WriteTo and ReadFrom move, and checksum, per call:
	// a whole number of words, and far above the 64 bytes crc32 needs to
	// take its vector kernel.
	chunkSize = 64 << 10
	// unsizedBytes caps what ReadFrom allocates for a section ahead of the
	// bytes it has read, when no file size bounds the header's counts.
	unsizedBytes = 1 << 20
)

// chunk is the one buffer a graph file moves through. Words are encoded
// into it or decoded out of it in a loop, and each chunk is written or
// read, and checksummed, in one call each.
type chunk struct {
	buf []byte
	crc uint32
	n   int64 // bytes written
}

func newChunk() *chunk { return &chunk{buf: make([]byte, chunkSize)} }

// write checksums b and writes it to w.
func (c *chunk) write(w io.Writer, b []byte) error {
	c.crc = crc32.Update(c.crc, crc32.IEEETable, b)
	m, err := w.Write(b)
	c.n += int64(m)
	return err
}

// read fills the first n bytes of the buffer from r and checksums them.
func (c *chunk) read(r io.Reader, n int) ([]byte, error) {
	b := c.buf[:n]
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	c.crc = crc32.Update(c.crc, crc32.IEEETable, b)
	return b, nil
}

// putWords writes xs as u64 words, a chunk at a time.
func putWords[T ~int64 | ~uint64](c *chunk, w io.Writer, xs []T) error {
	for len(xs) > 0 {
		k := min(len(xs), len(c.buf)/8)
		b := c.buf[:8*k]
		for i, x := range xs[:k] {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(x))
		}
		if err := c.write(w, b); err != nil {
			return err
		}
		xs = xs[k:]
	}
	return nil
}

// getWords reads n u64 words, a chunk at a time, into a slice that starts
// at no more than limit elements and grows only as words arrive: a count
// the input does not back costs at most limit elements.
func getWords[T ~int64 | ~uint64](c *chunk, r io.Reader, n, limit int) ([]T, error) {
	xs := make([]T, 0, min(n, limit))
	for len(xs) < n {
		b, err := c.read(r, 8*min(n-len(xs), len(c.buf)/8))
		if err != nil {
			return nil, err
		}
		at := len(xs)
		xs = slices.Grow(xs, len(b)/8)[:at+len(b)/8]
		for i := range xs[at:] {
			xs[at+i] = T(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
	return xs, nil
}

// WriteTo serializes the graph. It returns the byte count written.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	// The magic goes straight to w: the checksum covers post-magic bytes.
	if _, err := io.WriteString(w, ioMagic); err != nil {
		return 0, err
	}
	c := newChunk()
	c.n = int64(len(ioMagic))
	flags := uint32(0)
	if !g.procedural {
		flags |= flagMaterialized
	}
	le := binary.LittleEndian
	h := c.buf[:0]
	h = le.AppendUint32(h, ioVersion)
	h = le.AppendUint32(h, flags)
	h = le.AppendUint64(h, uint64(g.numNodes))
	h = le.AppendUint64(h, uint64(len(g.edges)))
	h = le.AppendUint32(h, uint32(g.attrLen))
	h = le.AppendUint64(h, g.attrSeed)
	if err := c.write(w, h); err != nil {
		return c.n, err
	}
	if err := putWords(c, w, g.offsets); err != nil {
		return c.n, err
	}
	if err := putWords(c, w, g.edges); err != nil {
		return c.n, err
	}
	for xs := g.attrs; !g.procedural && len(xs) > 0; {
		k := min(len(xs), len(c.buf)/4)
		b := c.buf[:4*k]
		for i, a := range xs[:k] {
			le.PutUint32(b[4*i:], math.Float32bits(a))
		}
		if err := c.write(w, b); err != nil {
			return c.n, err
		}
		xs = xs[k:]
	}
	m, err := w.Write(le.AppendUint32(c.buf[:0], c.crc))
	return c.n + int64(m), err
}

// ReadFrom deserializes a graph written by WriteTo. It reads exactly the
// graph's bytes and no further. The header's counts are checked against
// the bytes as they arrive: each section's slice grows with what has been
// read, so a header that overstates them costs at most a fixed allocation
// before the input runs out.
func ReadFrom(r io.Reader) (*Graph, error) { return readFrom(r, -1) }

// readFrom decodes a graph from r. size, when not negative, is the byte
// count r holds: a header whose sections need more is refused before any
// section is allocated, and each section is then allocated once at its
// exact size.
func readFrom(r io.Reader, size int64) (*Graph, error) {
	c := newChunk()
	magic := c.buf[:len(ioMagic)]
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("graph: read magic: %w", err)
	}
	if string(magic) != ioMagic {
		return nil, fmt.Errorf("graph: bad magic %q", magic)
	}
	h, err := c.read(r, ioHeaderSize)
	if err != nil {
		return nil, fmt.Errorf("graph: read header: %w", err)
	}
	le := binary.LittleEndian
	version, flags := le.Uint32(h), le.Uint32(h[4:])
	numNodes, numEdges := le.Uint64(h[8:]), le.Uint64(h[16:])
	attrLen, attrSeed := le.Uint32(h[24:]), le.Uint64(h[28:])
	if version != ioVersion {
		return nil, fmt.Errorf("graph: unsupported version %d", version)
	}
	if flags&^flagMaterialized != 0 {
		return nil, fmt.Errorf("graph: unknown flags %#x", flags)
	}
	const maxReasonable = 1 << 34
	if numNodes > maxReasonable || numEdges > maxReasonable || attrLen > 1<<20 {
		return nil, fmt.Errorf("graph: implausible header (%d nodes, %d edges, attr %d)", numNodes, numEdges, attrLen)
	}
	// The bounds above keep every count and byte size here below 2^56.
	numAttrs := uint64(0)
	if flags&flagMaterialized != 0 {
		numAttrs = numNodes * uint64(attrLen)
	}
	limit := unsizedBytes
	if size >= 0 {
		need := uint64(len(ioMagic)+ioHeaderSize+4) + 8*(numNodes+1) + 8*numEdges + 4*numAttrs
		if need > uint64(size) {
			return nil, fmt.Errorf("graph: header declares %d bytes, the file holds %d", need, size)
		}
		limit = math.MaxInt
	}
	g := &Graph{
		numNodes:   int64(numNodes),
		attrLen:    int(attrLen),
		attrSeed:   attrSeed,
		procedural: flags&flagMaterialized == 0,
	}
	if g.offsets, err = getWords[int64](c, r, int(numNodes)+1, limit/8); err != nil {
		return nil, fmt.Errorf("graph: read offsets: %w", err)
	}
	if g.edges, err = getWords[NodeID](c, r, int(numEdges), limit/8); err != nil {
		return nil, fmt.Errorf("graph: read edges: %w", err)
	}
	if !g.procedural {
		n := int(numAttrs)
		g.attrs = make([]float32, 0, min(n, limit/4))
		for len(g.attrs) < n {
			b, err := c.read(r, 4*min(n-len(g.attrs), len(c.buf)/4))
			if err != nil {
				return nil, fmt.Errorf("graph: read attrs: %w", err)
			}
			at := len(g.attrs)
			g.attrs = slices.Grow(g.attrs, len(b)/4)[:at+len(b)/4]
			for i := range g.attrs[at:] {
				g.attrs[at+i] = math.Float32frombits(le.Uint32(b[4*i:]))
			}
		}
	}
	want := c.crc
	if _, err := io.ReadFull(r, c.buf[:4]); err != nil {
		return nil, fmt.Errorf("graph: read checksum: %w", err)
	}
	if sum := le.Uint32(c.buf); sum != want {
		return nil, fmt.Errorf("graph: checksum mismatch (%#x vs %#x)", sum, want)
	}
	return g, g.validate()
}

// validate checks structural invariants after deserialization, the
// ascending order of every adjacency list included.
func (g *Graph) validate() error {
	if g.offsets[0] != 0 {
		return fmt.Errorf("graph: offsets do not start at 0")
	}
	for i := 1; i < len(g.offsets); i++ {
		if g.offsets[i] < g.offsets[i-1] {
			return fmt.Errorf("graph: offsets not monotone at node %d", i-1)
		}
	}
	if g.offsets[len(g.offsets)-1] != int64(len(g.edges)) {
		return fmt.Errorf("graph: final offset %d does not match %d edges",
			g.offsets[len(g.offsets)-1], len(g.edges))
	}
	for v := int64(0); v < g.numNodes; v++ {
		adj := g.edges[g.offsets[v]:g.offsets[v+1]]
		for i, e := range adj {
			if uint64(e) >= uint64(g.numNodes) {
				return fmt.Errorf("graph: edge %d targets missing node %d", g.offsets[v]+int64(i), e)
			}
			if i > 0 && e < adj[i-1] {
				return fmt.Errorf("graph: adjacency list of node %d not sorted at edge %d", v, i)
			}
		}
	}
	return nil
}

// Save writes the graph to a file.
func (g *Graph) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := g.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a graph from a file written by Save.
func Load(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return readFrom(f, fi.Size())
}
