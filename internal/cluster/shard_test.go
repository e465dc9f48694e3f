package cluster

import (
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/sampler"
)

func TestExtractShard(t *testing.T) {
	g := testGraph(t)
	part := HashPartitioner{N: 3}
	var totalEdges int64
	for p := 0; p < 3; p++ {
		shard, err := ExtractShard(g, part, p)
		if err != nil {
			t.Fatal(err)
		}
		if shard.NumNodes() != g.NumNodes() {
			t.Fatal("shard must keep the global ID space")
		}
		totalEdges += shard.NumEdges()
		for v := int64(0); v < g.NumNodes(); v++ {
			id := graph.NodeID(v)
			if part.Owner(id) == p {
				want := g.Neighbors(id)
				got := shard.Neighbors(id)
				if len(got) != len(want) {
					t.Fatalf("shard %d node %d: %d neighbors, want %d", p, v, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("shard %d node %d neighbor mismatch", p, v)
					}
				}
				// Procedural attrs carry over identically.
				wa, ga := g.Attr(nil, id), shard.Attr(nil, id)
				for i := range wa {
					if wa[i] != ga[i] {
						t.Fatalf("shard %d node %d attr mismatch", p, v)
					}
				}
			} else if shard.Degree(id) != 0 {
				t.Fatalf("shard %d stores foreign node %d", p, v)
			}
		}
	}
	if totalEdges != g.NumEdges() {
		t.Fatalf("shards cover %d edges, graph has %d", totalEdges, g.NumEdges())
	}
}

func TestExtractShardMaterialized(t *testing.T) {
	g := graph.Generate(graph.GenConfig{NumNodes: 300, AvgDegree: 4, AttrLen: 3, Seed: 4, Materialize: true})
	part := HashPartitioner{N: 2}
	shard, err := ExtractShard(g, part, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < g.NumNodes(); v++ {
		id := graph.NodeID(v)
		if part.Owner(id) != 0 {
			continue
		}
		wa, ga := g.Attr(nil, id), shard.Attr(nil, id)
		for i := range wa {
			if wa[i] != ga[i] {
				t.Fatalf("materialized attrs lost for node %d", v)
			}
		}
	}
}

// builderShard is partition p's shard built edge by edge through a
// graph.Builder: the reference ExtractShard's CSR copy must reproduce.
func builderShard(t *testing.T, g *graph.Graph, part Partitioner, p int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(g.NumNodes(), g.AttrLen())
	for v := int64(0); v < g.NumNodes(); v++ {
		id := graph.NodeID(v)
		if part.Owner(id) != p {
			continue
		}
		for _, u := range g.Neighbors(id) {
			if err := b.AddEdge(id, u); err != nil {
				t.Fatal(err)
			}
		}
		if g.Materialized() {
			if err := b.SetAttr(id, g.Attr(nil, id)); err != nil {
				t.Fatal(err)
			}
		}
	}
	shard, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return shard
}

// TestExtractShardMatchesBuilder: the shard is the one a Builder makes from
// the owned nodes' edges and attributes — every node's edge range,
// neighbors and attributes — and copying it allocates only the result.
func TestExtractShardMatchesBuilder(t *testing.T) {
	for _, materialize := range []bool{false, true} {
		g := graph.Generate(graph.GenConfig{NumNodes: 500, AvgDegree: 6, AttrLen: 4, Seed: 9, PowerLaw: true, Materialize: materialize})
		part := HashPartitioner{N: 3}
		for p := 0; p < 3; p++ {
			got, err := ExtractShard(g, part, p)
			if err != nil {
				t.Fatal(err)
			}
			want := builderShard(t, g, part, p)
			if got.NumEdges() != want.NumEdges() || got.Materialized() != materialize {
				t.Fatalf("materialize=%v shard %d: %d edges (materialized %v), want %d", materialize, p, got.NumEdges(), got.Materialized(), want.NumEdges())
			}
			// A procedural shard keeps g's seed, so every node's attributes
			// are g's; a materialized one stores the owned rows, zeros elsewhere.
			attrRef := want
			if !materialize {
				attrRef = g
			}
			for v := int64(0); v < g.NumNodes(); v++ {
				id := graph.NodeID(v)
				gs, ge := got.EdgeRange(id)
				ws, we := want.EdgeRange(id)
				if gs != ws || ge != we || !slices.Equal(got.Neighbors(id), want.Neighbors(id)) {
					t.Fatalf("materialize=%v shard %d node %d: adjacency differs", materialize, p, v)
				}
				if !slices.Equal(got.Attr(nil, id), attrRef.Attr(nil, id)) {
					t.Fatalf("materialize=%v shard %d node %d: attributes differ", materialize, p, v)
				}
			}
		}
		if allocs := testing.AllocsPerRun(3, func() { ExtractShard(g, part, 0) }); allocs > 6 {
			t.Fatalf("materialize=%v: ExtractShard made %.0f allocations, want the result's few", materialize, allocs)
		}
	}
}

func TestShardServerEquivalence(t *testing.T) {
	// A cluster of shard-backed servers must answer exactly like one of
	// full-graph servers, and sample what the local reference samples,
	// both over the generated graph and over the same graph after a Save
	// and Load: shards copy lists in the order the file holds them.
	g := testGraph(t)
	path := filepath.Join(t.TempDir(), "g.lsdg")
	if err := g.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := graph.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*graph.Graph{"generated": g, "loaded": loaded} {
		part := HashPartitioner{N: 4}
		full := make([]*Server, 4)
		shardSrv := make([]*Server, 4)
		for p := 0; p < 4; p++ {
			full[p] = NewServer(g, part, p)
			s, err := ShardServer(g, part, p)
			if err != nil {
				t.Fatal(err)
			}
			shardSrv[p] = s
		}
		cf, err := NewClient(DirectTransport{Servers: full}, part, 0)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := NewClient(DirectTransport{Servers: shardSrv}, part, 0)
		if err != nil {
			t.Fatal(err)
		}
		ids := []graph.NodeID{0, 5, 100, 555, 1400}
		lf, err := getNeighbors(cf, ids)
		if err != nil {
			t.Fatal(err)
		}
		ls, err := getNeighbors(cs, ids)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ids {
			if !slices.Equal(lf[i], ls[i]) {
				t.Fatalf("%s: node %d: shard cluster lists %v, full cluster %v", name, ids[i], ls[i], lf[i])
			}
		}
		af, err := getAttrs(cf, ids)
		if err != nil {
			t.Fatal(err)
		}
		as, err := getAttrs(cs, ids)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(af, as) {
			t.Fatalf("%s: shard cluster attrs differ", name)
		}
		// Sampling over the shard cluster draws what the local reference
		// over the same graph draws.
		for _, method := range []sampler.Method{sampler.Reservoir, sampler.Streaming} {
			cfg := sampler.Config{Fanouts: []int{3, 3}, Method: method, FetchAttrs: true, Seed: 1}
			got, err := sampler.KHop(bg, cs, cfg, ids)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sampler.KHop(bg, sampler.LocalStore{G: g}, cfg, ids)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Hops, want.Hops) || !slices.Equal(got.Attrs, want.Attrs) {
				t.Fatalf("%s, method %v: shard cluster sampled differently from the local reference", name, method)
			}
		}
	}
}

func TestShardMemorySavings(t *testing.T) {
	g := testGraph(t)
	part := HashPartitioner{N: 4}
	shard, err := ExtractShard(g, part, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A shard's edge storage is ≈1/4 of the full graph's.
	frac := float64(shard.NumEdges()) / float64(g.NumEdges())
	if frac > 0.40 || frac < 0.10 {
		t.Fatalf("shard holds %.0f%% of edges, want ~25%%", frac*100)
	}
}

func TestExtractShardValidation(t *testing.T) {
	g := testGraph(t)
	if _, err := ExtractShard(g, HashPartitioner{N: 0}, 0); err == nil {
		t.Fatal("invalid partitioner accepted")
	}
}
