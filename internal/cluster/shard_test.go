package cluster

import (
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

func TestShardServerEquivalence(t *testing.T) {
	// A cluster of shard-backed servers must answer exactly like one of
	// full-graph servers.
	g := testGraph(t)
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
		if len(lf[i]) != len(ls[i]) {
			t.Fatalf("node %d: shard cluster differs", ids[i])
		}
		for j := range lf[i] {
			if lf[i][j] != ls[i][j] {
				t.Fatalf("node %d neighbor %d differs", ids[i], j)
			}
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
	for i := range af {
		if af[i] != as[i] {
			t.Fatal("shard cluster attrs differ")
		}
	}
	// And sampling over the shard cluster works end to end.
	cfg := sampler.Config{Fanouts: []int{3, 3}, Method: sampler.Streaming, FetchAttrs: true, Seed: 1}
	if _, err := cs.SampleBatch(bg, ids, cfg); err != nil {
		t.Fatal(err)
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
