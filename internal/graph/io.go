package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

// Binary graph serialization, so partition servers can load a prepared
// graph instead of regenerating it. Format (little endian):
//
//	magic "LSDG" | version u32 | flags u32 | numNodes u64 | numEdges u64 |
//	attrLen u32 | attrSeed u64 | offsets (numNodes+1 × u64) |
//	edges (numEdges × u64) | [attrs (numNodes×attrLen × f32) if materialized] |
//	crc32 of everything after the magic
const (
	ioMagic   = "LSDG"
	ioVersion = 1

	flagMaterialized = 1 << 0
)

// WriteTo serializes the graph. It returns the byte count written.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	var n int64
	// The magic goes straight to w: the checksum covers post-magic bytes.
	if _, err := io.WriteString(w, ioMagic); err != nil {
		return n, err
	}
	n += 4
	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 1<<20)
	put := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	flags := uint32(0)
	if !g.procedural {
		flags |= flagMaterialized
	}
	for _, v := range []any{
		uint32(ioVersion), flags, uint64(g.numNodes), uint64(len(g.edges)),
		uint32(g.attrLen), g.attrSeed,
	} {
		if err := put(v); err != nil {
			return n, err
		}
	}
	for _, o := range g.offsets {
		if err := put(uint64(o)); err != nil {
			return n, err
		}
	}
	for _, e := range g.edges {
		if err := put(uint64(e)); err != nil {
			return n, err
		}
	}
	if !g.procedural {
		for _, a := range g.attrs {
			if err := put(math.Float32bits(a)); err != nil {
				return n, err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return n, err
	}
	sum := crc.Sum32()
	if err := binary.Write(w, binary.LittleEndian, sum); err != nil {
		return n, err
	}
	return n + 4, nil
}

// ReadFrom deserializes a graph written by WriteTo.
func ReadFrom(r io.Reader) (*Graph, error) {
	crc := crc32.NewIEEE()
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("graph: read magic: %w", err)
	}
	if string(magic) != ioMagic {
		return nil, fmt.Errorf("graph: bad magic %q", magic)
	}
	tr := io.TeeReader(br, crc)
	get := func(v any) error { return binary.Read(tr, binary.LittleEndian, v) }
	// The arrays are read a word at a time through one buffer: binary.Read
	// would allocate for every element.
	var word [8]byte
	u64 := func() (uint64, error) {
		_, err := io.ReadFull(tr, word[:])
		return binary.LittleEndian.Uint64(word[:]), err
	}

	var version, flags, attrLen uint32
	var numNodes, numEdges, attrSeed uint64
	for _, v := range []any{&version, &flags, &numNodes, &numEdges, &attrLen, &attrSeed} {
		if err := get(v); err != nil {
			return nil, fmt.Errorf("graph: read header: %w", err)
		}
	}
	if version != ioVersion {
		return nil, fmt.Errorf("graph: unsupported version %d", version)
	}
	const maxReasonable = 1 << 34
	if numNodes > maxReasonable || numEdges > maxReasonable || attrLen > 1<<20 {
		return nil, fmt.Errorf("graph: implausible header (%d nodes, %d edges, attr %d)", numNodes, numEdges, attrLen)
	}
	g := &Graph{
		numNodes: int64(numNodes),
		attrLen:  int(attrLen),
		attrSeed: attrSeed,
		offsets:  make([]int64, numNodes+1),
		edges:    make([]NodeID, numEdges),
	}
	for i := range g.offsets {
		o, err := u64()
		if err != nil {
			return nil, fmt.Errorf("graph: read offsets: %w", err)
		}
		g.offsets[i] = int64(o)
	}
	for i := range g.edges {
		e, err := u64()
		if err != nil {
			return nil, fmt.Errorf("graph: read edges: %w", err)
		}
		g.edges[i] = NodeID(e)
	}
	if flags&flagMaterialized != 0 {
		g.attrs = make([]float32, numNodes*uint64(attrLen))
		for i := range g.attrs {
			if _, err := io.ReadFull(tr, word[:4]); err != nil {
				return nil, fmt.Errorf("graph: read attrs: %w", err)
			}
			g.attrs[i] = math.Float32frombits(binary.LittleEndian.Uint32(word[:4]))
		}
	} else {
		g.procedural = true
	}
	want := crc.Sum32()
	var sum uint32
	if err := binary.Read(br, binary.LittleEndian, &sum); err != nil {
		return nil, fmt.Errorf("graph: read checksum: %w", err)
	}
	if sum != want {
		return nil, fmt.Errorf("graph: checksum mismatch (%#x vs %#x)", sum, want)
	}
	return g, g.validate()
}

// validate checks structural invariants after deserialization.
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
	for i, e := range g.edges {
		if int64(e) >= g.numNodes {
			return fmt.Errorf("graph: edge %d targets missing node %d", i, e)
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
	return ReadFrom(f)
}
