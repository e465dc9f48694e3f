package graph

import (
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func mustBuild(t *testing.T, b *Builder) *Graph {
	t.Helper()
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(4, 2)
	for _, e := range [][2]NodeID{{0, 1}, {0, 2}, {1, 3}, {3, 0}, {0, 3}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g := mustBuild(t, b)
	if g.NumNodes() != 4 || g.NumEdges() != 5 {
		t.Fatalf("nodes=%d edges=%d", g.NumNodes(), g.NumEdges())
	}
	want := map[NodeID][]NodeID{0: {1, 2, 3}, 1: {3}, 2: {}, 3: {0}}
	for v, nbrs := range want {
		got := g.Neighbors(v)
		if len(got) != len(nbrs) {
			t.Fatalf("node %d: neighbors %v, want %v", v, got, nbrs)
		}
		for i := range nbrs {
			if got[i] != nbrs[i] {
				t.Fatalf("node %d: neighbors %v, want %v (sorted)", v, got, nbrs)
			}
		}
		if g.Degree(v) != len(nbrs) {
			t.Fatalf("degree(%d) = %d", v, g.Degree(v))
		}
	}
}

func TestBuilderEdgeValidation(t *testing.T) {
	b := NewBuilder(2, 0)
	if err := b.AddEdge(0, 2); err == nil {
		t.Fatal("out-of-range dst accepted")
	}
	if err := b.AddEdge(5, 0); err == nil {
		t.Fatal("out-of-range src accepted")
	}
}

func TestBuilderAttrValidation(t *testing.T) {
	b := NewBuilder(2, 3)
	if err := b.SetAttr(0, []float32{1, 2}); err == nil {
		t.Fatal("wrong attr length accepted")
	}
	if err := b.SetAttr(9, []float32{1, 2, 3}); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if err := b.SetAttr(1, []float32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	g := mustBuild(t, b)
	got := g.Attr(nil, 1)
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("attr = %v", got)
	}
	// Unset node defaults to zeros.
	if z := g.Attr(nil, 0); z[0] != 0 || z[1] != 0 || z[2] != 0 {
		t.Fatalf("default attr = %v", z)
	}
}

func TestOutOfRangeAccessors(t *testing.T) {
	g := mustBuild(t, NewBuilder(2, 2))
	if g.Neighbors(99) != nil {
		t.Fatal("neighbors of missing node not nil")
	}
	if g.Degree(99) != 0 {
		t.Fatal("degree of missing node not 0")
	}
	if s, e := g.EdgeRange(99); s != 0 || e != 0 {
		t.Fatal("edge range of missing node not empty")
	}
	if a := g.Attr(nil, 99); len(a) != 2 || a[0] != 0 || a[1] != 0 {
		t.Fatalf("attr of missing node = %v", a)
	}
	if g.HasNode(1) == false || g.HasNode(2) == true {
		t.Fatal("HasNode wrong")
	}
}

// TestHugeIDsOutOfRange: IDs at or above 2^63 are negative as int64, so
// every range check must compare in uint64 space to reject them.
func TestHugeIDsOutOfRange(t *testing.T) {
	procedural := Generate(GenConfig{NumNodes: 40, AvgDegree: 3, AttrLen: 5, Seed: 2})
	materialized := Generate(GenConfig{NumNodes: 40, AvgDegree: 3, AttrLen: 5, Seed: 2, Materialize: true})
	for _, huge := range []NodeID{1 << 63, math.MaxUint64} {
		for name, g := range map[string]*Graph{"procedural": procedural, "materialized": materialized} {
			if g.HasNode(huge) {
				t.Fatalf("%s: HasNode(%d) true", name, huge)
			}
			if g.Neighbors(huge) != nil || g.Degree(huge) != 0 {
				t.Fatalf("%s: node %d has adjacency", name, huge)
			}
			if s, e := g.EdgeRange(huge); s != 0 || e != 0 {
				t.Fatalf("%s: EdgeRange(%d) = (%d,%d)", name, huge, s, e)
			}
			if a := g.Attr(nil, huge); !slices.Equal(a, make([]float32, 5)) {
				t.Fatalf("%s: Attr(%d) = %v", name, huge, a)
			}
			// A batch mixing valid and huge IDs reads what Attr reads,
			// position by position.
			vs := []NodeID{3, huge, 0, 39, huge, 7}
			var want []float32
			for _, v := range vs {
				want = g.Attr(want, v)
			}
			got := make([]float32, len(want))
			for i := range got {
				got[i] = float32(math.NaN()) // a dirty buffer: every element must be written
			}
			if err := g.AttrsBatch(context.Background(), got, vs); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: AttrsBatch %v, want %v", name, got, want)
			}
		}
		b := NewBuilder(4, 2)
		if b.AddEdge(huge, 1) == nil || b.AddEdge(1, huge) == nil {
			t.Fatalf("Builder.AddEdge accepted node %d", huge)
		}
		if b.SetAttr(huge, []float32{1, 2}) == nil {
			t.Fatalf("Builder.SetAttr accepted node %d", huge)
		}
		if d := NewDynamic(procedural); d.AddEdge(huge, 1) == nil || d.AddEdge(1, huge) == nil {
			t.Fatalf("Dynamic.AddEdge accepted node %d", huge)
		}
	}
}

func TestProceduralAttrsDeterministic(t *testing.T) {
	g := mustBuild(t, NewBuilder(10, 8))
	a := g.Attr(nil, 3)
	b := g.Attr(nil, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("procedural attrs not deterministic")
		}
		if a[i] < -1 || a[i] >= 1 {
			t.Fatalf("attr %v outside [-1,1)", a[i])
		}
	}
	c := g.Attr(nil, 4)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different nodes produced identical procedural attrs")
	}
	// Appending semantics.
	d := g.Attr(a, 4)
	if len(d) != 16 {
		t.Fatalf("append result length %d", len(d))
	}
}

func TestEdgeRangeConsistency(t *testing.T) {
	g := Generate(GenConfig{NumNodes: 500, AvgDegree: 6, AttrLen: 4, Seed: 3})
	var total int64
	for v := int64(0); v < g.NumNodes(); v++ {
		s, e := g.EdgeRange(NodeID(v))
		if e-s != int64(g.Degree(NodeID(v))) {
			t.Fatalf("node %d: edge range %d-%d vs degree %d", v, s, e, g.Degree(NodeID(v)))
		}
		if s != total {
			t.Fatalf("node %d: range start %d, want %d (CSR must be contiguous)", v, s, total)
		}
		total = e
	}
	if total != g.NumEdges() {
		t.Fatalf("ranges cover %d edges, graph has %d", total, g.NumEdges())
	}
}

func TestFootprintMath(t *testing.T) {
	g := mustBuild(t, NewBuilder(100, 10))
	want := int64(101*8) + 100*10*4
	if g.FootprintBytes() != want {
		t.Fatalf("footprint = %d, want %d", g.FootprintBytes(), want)
	}
	if g.AttrBytes() != 40 {
		t.Fatalf("attr bytes = %d", g.AttrBytes())
	}
}

func TestGenerateCounts(t *testing.T) {
	cfg := GenConfig{NumNodes: 2000, AvgDegree: 8, AttrLen: 16, Seed: 1, PowerLaw: true}
	g := Generate(cfg)
	if g.NumNodes() != 2000 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if g.NumEdges() != 16000 {
		t.Fatalf("edges = %d, want 16000", g.NumEdges())
	}
	if d := g.AvgDegree(); d < 7.9 || d > 8.1 {
		t.Fatalf("avg degree = %v", d)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{NumNodes: 300, AvgDegree: 5, AttrLen: 4, Seed: 9, PowerLaw: true}
	a, b := Generate(cfg), Generate(cfg)
	for v := int64(0); v < a.NumNodes(); v++ {
		na, nb := a.Neighbors(NodeID(v)), b.Neighbors(NodeID(v))
		if len(na) != len(nb) {
			t.Fatalf("node %d: degree differs", v)
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("node %d: neighbors differ", v)
			}
		}
	}
}

func TestGeneratePowerLawSkew(t *testing.T) {
	pl := Generate(GenConfig{NumNodes: 5000, AvgDegree: 10, AttrLen: 1, Seed: 2, PowerLaw: true})
	uni := Generate(GenConfig{NumNodes: 5000, AvgDegree: 10, AttrLen: 1, Seed: 2, PowerLaw: false})
	// In-degree skew: count in-edges of the lowest-ID 1% of nodes.
	inDeg := func(g *Graph) int64 {
		var count int64
		for v := int64(0); v < g.NumNodes(); v++ {
			for _, u := range g.Neighbors(NodeID(v)) {
				if int64(u) < g.NumNodes()/100 {
					count++
				}
			}
		}
		return count
	}
	if inDeg(pl) < 4*inDeg(uni) {
		t.Fatalf("power-law hubs not skewed: %d vs uniform %d", inDeg(pl), inDeg(uni))
	}
	if pl.MaxDegree() == 0 {
		t.Fatal("max degree zero")
	}
}

func TestGenerateMaterialized(t *testing.T) {
	g := Generate(GenConfig{NumNodes: 50, AvgDegree: 3, AttrLen: 8, Seed: 4, Materialize: true})
	a := g.Attr(nil, 10)
	if len(a) != 8 {
		t.Fatalf("attr len %d", len(a))
	}
	var nonzero bool
	for _, v := range a {
		if v != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("materialized attrs all zero")
	}
}

func TestGenerateNoSelfLoops(t *testing.T) {
	g := Generate(GenConfig{NumNodes: 400, AvgDegree: 6, AttrLen: 1, Seed: 5, PowerLaw: true})
	for v := int64(0); v < g.NumNodes(); v++ {
		for _, u := range g.Neighbors(NodeID(v)) {
			if u == NodeID(v) {
				t.Fatalf("self loop at %d", v)
			}
		}
	}
}

func TestPropertyEdgesInRange(t *testing.T) {
	f := func(seed int64, nSmall uint8) bool {
		n := int64(nSmall)%200 + 10
		g := Generate(GenConfig{NumNodes: n, AvgDegree: 4, AttrLen: 2, Seed: seed, PowerLaw: seed%2 == 0})
		for v := int64(0); v < g.NumNodes(); v++ {
			for _, u := range g.Neighbors(NodeID(v)) {
				if !g.HasNode(u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCSRRoundTrip(t *testing.T) {
	// Random edge lists survive the CSR build exactly (as sorted multisets).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int64(rng.Intn(50) + 2)
		b := NewBuilder(n, 0)
		adj := make(map[NodeID][]NodeID)
		for i := 0; i < rng.Intn(200); i++ {
			s, d := NodeID(rng.Int63n(n)), NodeID(rng.Int63n(n))
			if b.AddEdge(s, d) != nil {
				return false
			}
			adj[s] = append(adj[s], d)
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		for v, want := range adj {
			got := g.Neighbors(v)
			if len(got) != len(want) {
				return false
			}
			seen := map[NodeID]int{}
			for _, u := range want {
				seen[u]++
			}
			for _, u := range got {
				seen[u]--
			}
			for _, c := range seen {
				if c != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeHistogram(t *testing.T) {
	b := NewBuilder(4, 0)
	_ = b.AddEdge(0, 1)
	_ = b.AddEdge(0, 2)
	_ = b.AddEdge(0, 3)
	_ = b.AddEdge(1, 0)
	g := mustBuild(t, b)
	h := g.DegreeHistogram()
	// degrees: 3,1,0,0 → buckets log2(d+1): 3→2, 1→1, 0→0 (×2)
	if h[0] != 2 || h[1] != 1 || h[2] != 1 {
		t.Fatalf("histogram = %v", h)
	}
}

// TestProceduralAttrsPaths calls the vector kernel path and the portable
// loop directly and checks each against ProceduralAttr bit for bit, at
// attribute lengths with and without a 1–7 float tail and at ID counts on
// both sides of the kernel's groups of 32, duplicates and IDs past 2^63
// included.
func TestProceduralAttrsPaths(t *testing.T) {
	const seed = 0x5ca1ab1e
	ids := make([]NodeID, 100)
	for i := range ids {
		ids[i] = NodeID(uint64(i) * 0x9e3779b97f4a7c15) // half past 2^63
	}
	ids[5], ids[40], ids[41] = ids[4], ids[4], ids[39]
	ids[70], ids[71] = NodeID(1<<63), NodeID(math.MaxUint64)
	paths := []struct {
		name string
		run  func(t *testing.T, dst []float32, al int, vs []NodeID)
	}{
		{"portable", func(_ *testing.T, dst []float32, al int, vs []NodeID) {
			proceduralLanes(dst, seed, al, vs)
		}},
		{"kernel", func(t *testing.T, dst []float32, al int, vs []NodeID) {
			if !haveWide {
				t.Skip("this CPU lacks AVX-512 F/DQ/VL (or the OS does not save zmm state), so the kernel cannot run")
			}
			n := proceduralWide(dst, seed, al, vs)
			if want := len(vs) &^ 31; al < 8 && n != 0 || al >= 8 && n != want {
				t.Fatalf("kernel covered %d IDs of %d at attrLen %d", n, len(vs), al)
			}
			proceduralLanes(dst[n*al:], seed, al, vs[n:])
		}},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			for _, al := range []int{0, 1, 7, 8, 16, 63, 64, 72, 84, 128, 130, 152} {
				for _, n := range []int{0, 1, 31, 32, 33, 63, 64, 65, 100} {
					vs := ids[:n]
					var want []float32
					for _, v := range vs {
						want = ProceduralAttr(want, seed, al, v)
					}
					got := make([]float32, n*al)
					p.run(t, got, al, vs)
					for i := range want {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("attrLen %d, %d IDs: float %d (node %d): %v, want %v", al, n, i, vs[i/al], got[i], want[i])
						}
					}
				}
			}
		})
	}
}

// FuzzProceduralAttrs: the generator is bit-identical to the scalar
// reference for any seed, vector length and ID list, across several groups
// of 32, leftover IDs and IDs past 2^63 included.
func FuzzProceduralAttrs(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, attrLen uint8, raw []byte) {
		al := int(attrLen) % 131
		vs := make([]NodeID, min(len(raw)/8, 130))
		for i := range vs {
			vs[i] = NodeID(binary.LittleEndian.Uint64(raw[i*8:]))
		}
		var want []float32
		for _, v := range vs {
			want = ProceduralAttr(want, seed, al, v)
		}
		got := make([]float32, len(vs)*al)
		ProceduralAttrs(got, seed, al, vs)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("float %d (node %d): %v, want %v", i, vs[i/al], got[i], want[i])
			}
		}
	})
}

// BenchmarkProceduralAttrs compares the scalar chain, the portable
// four-lane loop and ProceduralAttrs (the vector kernel where the CPU has
// AVX-512) over a 32-vector batch of 64-float vectors, in ns per vector.
func BenchmarkProceduralAttrs(b *testing.B) {
	const n, al = 32, 64
	vs := make([]NodeID, n)
	for i := range vs {
		vs[i] = NodeID(i * 7919)
	}
	dst := make([]float32, n*al)
	b.Run("serial", func(b *testing.B) {
		for range b.N {
			for i, v := range vs {
				ProceduralAttr(dst[i*al:i*al], 0x5ca1ab1e, al, v)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/vec")
	})
	b.Run("portable", func(b *testing.B) {
		for range b.N {
			proceduralLanes(dst, 0x5ca1ab1e, al, vs)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/vec")
	})
	b.Run("batch", func(b *testing.B) {
		if haveWide {
			b.Log("batch path: AVX-512 kernel")
		} else {
			b.Log("batch path: portable loop (no AVX-512 kernel on this CPU)")
		}
		for range b.N {
			ProceduralAttrs(dst, 0x5ca1ab1e, al, vs)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/vec")
	})
}
