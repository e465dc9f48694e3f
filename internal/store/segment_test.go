package store

import (
	"bytes"
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
