package graph

import (
	"bytes"
	"path/filepath"
	"testing"
)

func roundTrip(t *testing.T, g *Graph) *Graph {
	t.Helper()
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func graphsEqual(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() || a.AttrLen() != b.AttrLen() {
		t.Fatalf("shape mismatch: %d/%d/%d vs %d/%d/%d",
			a.NumNodes(), a.NumEdges(), a.AttrLen(), b.NumNodes(), b.NumEdges(), b.AttrLen())
	}
	for v := int64(0); v < a.NumNodes(); v++ {
		na, nb := a.Neighbors(NodeID(v)), b.Neighbors(NodeID(v))
		if len(na) != len(nb) {
			t.Fatalf("node %d degree differs", v)
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("node %d neighbor %d differs", v, i)
			}
		}
		aa, ab := a.Attr(nil, NodeID(v)), b.Attr(nil, NodeID(v))
		for i := range aa {
			if aa[i] != ab[i] {
				t.Fatalf("node %d attr %d differs: %v vs %v", v, i, aa[i], ab[i])
			}
		}
	}
}

func TestIORoundTripProcedural(t *testing.T) {
	g := Generate(GenConfig{NumNodes: 800, AvgDegree: 6, AttrLen: 8, Seed: 5, PowerLaw: true})
	graphsEqual(t, g, roundTrip(t, g))
}

func TestIORoundTripMaterialized(t *testing.T) {
	g := Generate(GenConfig{NumNodes: 300, AvgDegree: 4, AttrLen: 5, Seed: 6, Materialize: true})
	got := roundTrip(t, g)
	if got.procedural {
		t.Fatal("materialized flag lost")
	}
	graphsEqual(t, g, got)
}

// TestIOReadAllocatesOnlyTheGraph: a load allocates its arrays and a few
// buffers, not one object per stored word.
func TestIOReadAllocatesOnlyTheGraph(t *testing.T) {
	for _, materialize := range []bool{false, true} {
		g := Generate(GenConfig{NumNodes: 2000, AvgDegree: 8, AttrLen: 4, Seed: 7, Materialize: materialize})
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 40 {
			t.Fatalf("materialize=%v: ReadFrom made %.0f allocations for %d nodes and %d edges", materialize, allocs, g.NumNodes(), g.NumEdges())
		}
	}
}

func TestIORoundTripEmpty(t *testing.T) {
	g, err := NewBuilder(0, 0).Build()
	if err != nil {
		t.Fatal(err)
	}
	got := roundTrip(t, g)
	if got.NumNodes() != 0 || got.NumEdges() != 0 {
		t.Fatal("empty graph not preserved")
	}
}

func TestIODetectsCorruption(t *testing.T) {
	g := Generate(GenConfig{NumNodes: 100, AvgDegree: 4, AttrLen: 2, Seed: 7})
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, idx := range []int{5, len(data) / 2, len(data) - 6} {
		mutated := append([]byte(nil), data...)
		mutated[idx] ^= 0x10
		if _, err := ReadFrom(bytes.NewReader(mutated)); err == nil {
			t.Errorf("corruption at byte %d not detected", idx)
		}
	}
}

func TestIORejectsBadMagicAndVersion(t *testing.T) {
	if _, err := ReadFrom(bytes.NewReader([]byte("NOPE1234"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := ReadFrom(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestIOTruncated(t *testing.T) {
	g := Generate(GenConfig{NumNodes: 100, AvgDegree: 4, AttrLen: 2, Seed: 8})
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{6, 30, len(data) - 2} {
		if _, err := ReadFrom(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	g := Generate(GenConfig{NumNodes: 200, AvgDegree: 5, AttrLen: 3, Seed: 9, PowerLaw: true})
	path := filepath.Join(t.TempDir(), "g.lsdg")
	if err := g.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, got)
	if _, err := Load(filepath.Join(t.TempDir(), "missing.lsdg")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestIOByteCount(t *testing.T) {
	g := Generate(GenConfig{NumNodes: 50, AvgDegree: 3, AttrLen: 2, Seed: 10})
	var buf bytes.Buffer
	n, err := g.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("reported %d bytes, wrote %d", n, buf.Len())
	}
}
