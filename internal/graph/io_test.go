package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
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
		if allocs > 8 {
			t.Fatalf("materialize=%v: ReadFrom made %.0f allocations for %d nodes and %d edges", materialize, allocs, g.NumNodes(), g.NumEdges())
		}
	}
}

// TestIOWriteAllocatesOnlyItsBuffers: a save allocates its chunk buffer,
// not one object per stored word.
func TestIOWriteAllocatesOnlyItsBuffers(t *testing.T) {
	for _, materialize := range []bool{false, true} {
		g := Generate(GenConfig{NumNodes: 2000, AvgDegree: 8, AttrLen: 4, Seed: 7, Materialize: materialize})
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			buf.Reset()
			if _, err := g.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 8 {
			t.Fatalf("materialize=%v: WriteTo made %.0f allocations for %d nodes and %d edges", materialize, allocs, g.NumNodes(), g.NumEdges())
		}
	}
}

// goldenGraphs are the graphs in testdata/*.lsdg. The files were written
// by the word-at-a-time encoder that preceded the chunked one and pin the
// format: WriteTo must reproduce them byte for byte, and Load must read
// them back. Regenerating them from the code under test defeats the test.
var goldenGraphs = map[string]GenConfig{
	"procedural":   {NumNodes: 300, AvgDegree: 5, AttrLen: 8, Seed: 11, PowerLaw: true},
	"materialized": {NumNodes: 200, AvgDegree: 4, AttrLen: 6, Seed: 12, Materialize: true},
}

func TestIOGoldenFiles(t *testing.T) {
	for name, cfg := range goldenGraphs {
		path := filepath.Join("testdata", name+".lsdg")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		g := Generate(cfg)
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%s: WriteTo wrote %d bytes that differ from the %d in %s", name, buf.Len(), len(want), path)
		}
		got, err := Load(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Materialized() != cfg.Materialize {
			t.Fatalf("%s: materialized %v after Load", name, got.Materialized())
		}
		graphsEqual(t, g, got)
	}
}

// hugeHeader is a well-formed 44-byte graph file whose header declares the
// largest counts the plausibility bound admits: 2^34 nodes and edges and,
// materialized, 2^54 attribute floats. Its checksum is right, so only the
// counts themselves can refuse it.
func hugeHeader() []byte {
	le := binary.LittleEndian
	h := le.AppendUint32(nil, ioVersion)
	h = le.AppendUint32(h, flagMaterialized)
	h = le.AppendUint64(h, 1<<34)
	h = le.AppendUint64(h, 1<<34)
	h = le.AppendUint32(h, 1<<20)
	h = le.AppendUint64(h, 0)
	return le.AppendUint32(append([]byte(ioMagic), h...), crc32.ChecksumIEEE(h))
}

// TestIORejectsHeaderLargerThanInput: a header may not allocate what the
// input does not hold. Load refuses it against the file size; ReadFrom
// runs out of input after at most its fixed allocation cap per section.
func TestIORejectsHeaderLargerThanInput(t *testing.T) {
	data := hugeHeader()
	path := filepath.Join(t.TempDir(), "huge.lsdg")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, read := range map[string]func() (*Graph, error){
		"ReadFrom": func() (*Graph, error) { return ReadFrom(bytes.NewReader(data)) },
		"Load":     func() (*Graph, error) { return Load(path) },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := read()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s accepted a %d-byte file that declares 2^34 nodes", name, len(data))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 4*unsizedBytes {
			t.Fatalf("%s allocated %d bytes for a %d-byte file: %v", name, got, len(data), err)
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

// TestIORejectsUnknownFlags: a flag bit WriteTo never sets is refused, not
// dropped on the way back out.
func TestIORejectsUnknownFlags(t *testing.T) {
	g := Generate(GenConfig{NumNodes: 20, AvgDegree: 2, AttrLen: 2, Seed: 3})
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[8] |= 0x02 // flags, the word after magic and version
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[4:len(data)-4]))
	if _, err := ReadFrom(bytes.NewReader(data)); err == nil {
		t.Fatal("unknown flag bit accepted")
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

// unsortedGraph is a small generated graph with the first and last
// entries of every other multi-entry list swapped, and the first node so
// left out of order. Written with Save, its checksums are valid, so only
// the order can refuse it. testdata/fuzz/FuzzReadFrom/unsorted holds the
// bytes it saves to.
func unsortedGraph() (*Graph, NodeID) {
	g := Generate(GenConfig{NumNodes: 16, AvgDegree: 3, AttrLen: 2, Seed: 13, PowerLaw: true})
	first := NodeID(g.numNodes)
	for v := g.numNodes - 1; v >= 0; v -= 2 {
		adj := g.edges[g.offsets[v]:g.offsets[v+1]]
		if len(adj) > 1 && adj[0] != adj[len(adj)-1] {
			adj[0], adj[len(adj)-1] = adj[len(adj)-1], adj[0]
			first = NodeID(v)
		}
	}
	return g, first
}

// TestIORejectsUnsortedList: sorted lists are part of the format, so a
// file whose lists are out of order fails to load, and the error names the
// first such node.
func TestIORejectsUnsortedList(t *testing.T) {
	g, first := unsortedGraph()
	if first == NodeID(g.numNodes) {
		t.Fatal("no list was swapped")
	}
	path := filepath.Join(t.TempDir(), "unsorted.lsdg")
	if err := g.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("adjacency list of node %d not sorted", first)
	for name, read := range map[string]func() (*Graph, error){
		"ReadFrom": func() (*Graph, error) { return ReadFrom(bytes.NewReader(data)) },
		"Load":     func() (*Graph, error) { return Load(path) },
	} {
		if _, err := read(); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: error %v, want one naming %q", name, err, want)
		}
	}
}

// TestIORejectsEdgeBeyondInt64: an edge whose target does not fit an
// int64 is out of range too, not a negative ID below the node count.
func TestIORejectsEdgeBeyondInt64(t *testing.T) {
	g := Generate(GenConfig{NumNodes: 16, AvgDegree: 3, AttrLen: 2, Seed: 13})
	g.edges[len(g.edges)-1] = 1 << 63 // the last list's last entry: still sorted
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrom(&buf); err == nil || !strings.Contains(err.Error(), "targets missing node") {
		t.Fatalf("error %v, want an out-of-range edge", err)
	}
}

// FuzzReadFrom: decoding never panics, Load and ReadFrom accept the same
// inputs, whatever they accept has every adjacency list in ascending
// order, and WriteTo writes it back as the bytes it was read from. The
// seed corpus in testdata/fuzz/FuzzReadFrom holds a tiny procedural and a
// tiny materialized file, a truncation, a bit flip, hugeHeader and
// unsortedGraph's file.
func FuzzReadFrom(f *testing.F) {
	path := filepath.Join(f.TempDir(), "in.lsdg")
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadFrom(bytes.NewReader(data))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		lg, lerr := Load(path)
		if (err == nil) != (lerr == nil) {
			t.Fatalf("ReadFrom error %v, Load error %v", err, lerr)
		}
		if err != nil {
			return
		}
		for _, g := range []*Graph{g, lg} {
			for v := NodeID(0); v < NodeID(g.NumNodes()); v++ {
				if !slices.IsSorted(g.Neighbors(v)) {
					t.Fatalf("accepted node %d's unsorted list %v", v, g.Neighbors(v))
				}
			}
			var out bytes.Buffer
			if _, err := g.WriteTo(&out); err != nil {
				t.Fatal(err)
			}
			if n := out.Len(); n > len(data) || !bytes.Equal(out.Bytes(), data[:n]) {
				t.Fatalf("accepted %d bytes, re-serialized to %d different ones", len(data), n)
			}
		}
	})
}
