package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/big"
	"os"
	"path/filepath"
	"testing"

	"lsdgnn/internal/graph"
)

// sealHeader rewrites b's header CRC so the structural checks behind it
// are reachable from mutated bytes.
func sealHeader(b []byte) []byte {
	b = append([]byte(nil), b...)
	binary.LittleEndian.PutUint32(b[92:], crc32.ChecksumIEEE(b[:92]))
	return b
}

// FuzzSegmentHeader: decodeHeader never panics, every refusal is
// ErrCorrupt, and a header it accepts has its sections exactly where the
// fixed layout puts them — computed here without overflow, so a count
// that wraps int64 cannot pass for a small file. Each input is decoded as
// given and with its CRC resealed.
func FuzzSegmentHeader(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seg")
	g := graph.Generate(graph.GenConfig{NumNodes: 50, AvgDegree: 4, AttrLen: 8, Seed: 1, Materialize: true})
	if _, err := writeSegment(path, 3, g); err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	good := seg[:headerSize]
	f.Add(good)
	f.Add(good[:headerSize/2])
	flipped := append([]byte(nil), good...)
	flipped[92] ^= 0x01
	f.Add(flipped)
	skewed := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(skewed[56:], binary.LittleEndian.Uint64(good[56:])+8) // edgeTable
	f.Add(sealHeader(skewed))
	// 2^61 - 1 nodes: the offsets section's 2^64 bytes wrap to nothing, and
	// the edges start where the offsets do.
	le := binary.LittleEndian
	wrapped := append([]byte(nil), good...)
	le.PutUint32(wrapped[8:], 0) // procedural attributes
	le.PutUint64(wrapped[24:], 1<<61-1)
	le.PutUint64(wrapped[56:], headerSize)
	le.PutUint64(wrapped[64:], 0)
	le.PutUint64(wrapped[72:], headerSize+le.Uint64(good[32:])*8)
	f.Add(sealHeader(wrapped))

	f.Fuzz(func(t *testing.T, b []byte) {
		checkHeader(t, b)
		if len(b) >= headerSize {
			checkHeader(t, sealHeader(b))
		}
	})
}

func checkHeader(t *testing.T, b []byte) {
	h, err := decodeHeader(b)
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("refusal %v is not ErrCorrupt", err)
		}
		return
	}
	if h.offTable != headerSize {
		t.Fatalf("accepted offsets table at %d, want %d", h.offTable, headerSize)
	}
	at := func(base int64, count int64, width int64) *big.Int {
		n := new(big.Int).Mul(big.NewInt(count), big.NewInt(width))
		return n.Add(n, big.NewInt(base))
	}
	edge := at(headerSize, h.numNodes, 8)
	edge.Add(edge, big.NewInt(8)) // numNodes+1 offsets
	end := new(big.Int).Add(edge, new(big.Int).Mul(big.NewInt(h.numEdges), big.NewInt(8)))
	attr := big.NewInt(0)
	if h.materialized {
		attr.Set(end)
		end.Add(end, new(big.Int).Mul(big.NewInt(h.numNodes), big.NewInt(int64(h.attrLen)*4)))
	}
	for _, c := range []struct {
		name string
		got  int64
		want *big.Int
	}{{"edge table", h.edgeTable, edge}, {"attr table", h.attrTable, attr}, {"file size", h.fileSize, end}} {
		if !c.want.IsInt64() || c.want.Int64() != c.got {
			t.Fatalf("accepted %s at %d, the layout puts it at %v (nodes %d, edges %d, attrLen %d)",
				c.name, c.got, c.want, h.numNodes, h.numEdges, h.attrLen)
		}
	}
}

// goldenSegments are the graphs behind testdata/*.lsds, the generation-1
// segments Create bulk-loads them into. The files were written by the
// word-at-a-time writer that preceded the chunked one and pin the format:
// Create must reproduce them byte for byte, and Open must serve them.
// Regenerating them from the code under test defeats the test.
var goldenSegments = map[string]graph.GenConfig{
	"procedural":   {NumNodes: 300, AvgDegree: 5, AttrLen: 8, Seed: 11, PowerLaw: true},
	"materialized": {NumNodes: 200, AvgDegree: 4, AttrLen: 6, Seed: 12, Materialize: true},
}

func TestSegmentGoldenFiles(t *testing.T) {
	for name, cfg := range goldenSegments {
		want, err := os.ReadFile(filepath.Join("testdata", name+".lsds"))
		if err != nil {
			t.Fatal(err)
		}
		g := graph.Generate(cfg)
		dir := filepath.Join(t.TempDir(), "created")
		if err := Create(dir, g); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, segName(1)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: Create wrote %d bytes that differ from the %d golden ones", name, len(got), len(want))
		}

		dir = filepath.Join(t.TempDir(), "golden")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segName(1)), want, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := writeCurrent(dir, 1); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.Verify(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertGraphParity(t, s, g)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// offsetsSection returns the little-endian offsets section of cumulative
// degrees degs.
func offsetsSection(degs ...uint64) []byte {
	b := binary.LittleEndian.AppendUint64(nil, 0)
	var cum uint64
	for _, d := range degs {
		cum += d
		b = binary.LittleEndian.AppendUint64(b, cum)
	}
	return b
}

// FuzzOffsetIndex: readOffsetIndex never panics, and on any offsets
// section — the bytes b for numNodes vertices and numEdges edges, checked
// against their own checksum when seal is set and a wrong one otherwise —
// it refuses with ErrCorrupt exactly when the raw little-endian decode is
// not a whole, sealed table that starts at 0, never falls and ends at
// numEdges, and otherwise answers every offset as that decode does.
func FuzzOffsetIndex(f *testing.F) {
	wide := offsetsSection(1, 70_000, 0, 3)                       // a block past a uint16
	f.Add(wide, uint16(4), uint64(70_004), true)                  // accepted, through wide
	f.Add(wide, uint16(4), uint64(70_004), false)                 // wrong checksum
	f.Add(wide[:20], uint16(3), uint64(70_004), true)             // truncated table
	f.Add(offsetsSection(5, 1<<64-3), uint16(2), uint64(2), true) // falls
	f.Add(offsetsSection(7), uint16(1), uint64(7), true)
	many := make([]uint64, 200)
	for i := range many {
		many[i] = uint64(i % 5 * 600)
	}
	f.Add(offsetsSection(many...), uint16(200), uint64(240_000), true) // three wide blocks of four

	f.Fuzz(func(t *testing.T, b []byte, nodes uint16, edges uint64, seal bool) {
		// At most two vertices past what b holds: enough to read a short
		// table, few enough that an index never dwarfs its input.
		numNodes, numEdges := int64(nodes)%int64(len(b)/8+2), int64(edges&^(1<<63))
		section := b[:min(int64(len(b)), (numNodes+1)*8)]
		crc := crc32.ChecksumIEEE(section)
		if !seal {
			crc ^= 0x5eed
		}
		raw := make([]int64, len(section)/8)
		valid := seal && len(raw) == int(numNodes+1)
		for i := range raw {
			raw[i] = int64(binary.LittleEndian.Uint64(section[i*8:]))
			valid = valid && uint64(raw[i]) <= uint64(numEdges) && (i == 0 && raw[i] == 0 || i > 0 && raw[i] >= raw[i-1])
		}
		valid = valid && raw[numNodes] == numEdges
		x, err := readOffsetIndex(bytes.NewReader(b), 0, numNodes, numEdges, crc)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("refusal %v is not ErrCorrupt", err)
			}
			if valid {
				t.Fatalf("refused a valid table of %d offsets for %d edges: %v", len(raw), numEdges, err)
			}
			return
		}
		if !valid {
			t.Fatalf("accepted an invalid table (seal=%v, %d of %d offsets, %d edges)", seal, len(raw), numNodes+1, numEdges)
		}
		for i, want := range raw {
			if got := x.at(int64(i)); got != want {
				t.Fatalf("offset %d: index says %d, the section %d", i, got, want)
			}
		}
		if want := int64(len(x.base))*8 + int64(len(x.rel))*2 + int64(len(x.wide))*8; x.bytes() < want {
			t.Fatalf("index charges %d bytes, holds at least %d", x.bytes(), want)
		}
	})
}

// TestDiskStoreHubParity: vertices whose runs outgrow a uint16 put their
// index blocks in the wide table, and every vertex still reads back its
// exact adjacency, budgeted and mapped. The offsets span three chunks of
// the index build, the last one ending in a partial block.
func TestDiskStoreHubParity(t *testing.T) {
	const n = 20_000
	b := graph.NewBuilder(n, 4)
	hubs := map[graph.NodeID]int{3: 70_000, 10_000: 66_000} // blocks 0 and 156, chunks 0 and 1
	for v := graph.NodeID(0); v < n; v++ {
		deg := int(v % 7)
		if d, ok := hubs[v]; ok {
			deg = d
		}
		for j := 0; j < deg; j++ {
			if err := b.AddEdge(v, graph.NodeID((int(v)*31+j*17)%n)); err != nil {
				t.Fatal(err)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	vs := make([]graph.NodeID, n)
	for i := range vs {
		vs[i] = graph.NodeID(i)
	}
	for _, opts := range [][]Option{{WithMemoryBudget(16 * PageSize)}, nil} {
		_, s := mustCreate(t, g, opts...)
		if w := len(s.seg.idx.wide); w != 2*indexBlock {
			t.Fatalf("%d options: %d wide offsets, want the two hub blocks' %d", len(opts), w, 2*indexBlock)
		}
		dst := make([][]graph.NodeID, n)
		if err := s.NeighborsBatch(context.Background(), dst, vs); err != nil {
			t.Fatal(err)
		}
		for _, v := range vs {
			if !equalIDs(dst[v], g.Neighbors(v)) {
				t.Fatalf("%d options: node %d: %d neighbours, want %d", len(opts), v, len(dst[v]), len(g.Neighbors(v)))
			}
		}
	}
}
