package store

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/sampler"
)

// TestChaosDiskStoreUnderFaults hammers one store with concurrent
// samplers, a continuous ingest stream, and repeated compactions, then
// cold-restarts it and requires the survivor to match a graph.Dynamic
// that saw the identical mutation stream. This is the storage tier's
// version of the cluster chaos suite: nothing here may error, lose an
// acked write, or serve adjacency that diverges from the in-memory
// reference.
func TestChaosDiskStoreUnderFaults(t *testing.T) {
	g := graph.Generate(graph.GenConfig{
		NumNodes: 300, AvgDegree: 6, AttrLen: 8, Seed: 99, PowerLaw: true,
	})
	dir := t.TempDir()
	if err := Create(dir, g); err != nil {
		t.Fatalf("Create: %v", err)
	}
	s, err := Open(dir, WithMemoryBudget(32<<10))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	const (
		readers  = 4
		writes   = 600
		compacts = 5
	)
	// Pre-generate the mutation stream so the reference can replay it.
	rng := rand.New(rand.NewSource(1))
	edges := make([][2]graph.NodeID, writes)
	for i := range edges {
		edges[i] = [2]graph.NodeID{
			graph.NodeID(rng.Int63n(g.NumNodes())),
			graph.NodeID(rng.Int63n(g.NumNodes())),
		}
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	errc := make(chan error, readers+2)
	stop := make(chan struct{})

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			sm := sampler.New(s, sampler.Config{Fanouts: []int{3, 2}, FetchAttrs: true, Seed: seed})
			rrng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				roots := []graph.NodeID{
					graph.NodeID(rrng.Int63n(g.NumNodes())),
					graph.NodeID(rrng.Int63n(g.NumNodes())),
				}
				res, err := sm.Sample(ctx, roots)
				if err != nil {
					errc <- err
					return
				}
				res.Release()
			}
		}(int64(r + 1))
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i, e := range edges {
			if err := s.AddEdge(e[0], e[1]); err != nil {
				errc <- err
				return
			}
			if i%(writes/compacts) == writes/compacts-1 {
				if err := s.Compact(); err != nil {
					errc <- err
					return
				}
			}
		}
	}()

	wg.Wait()
	select {
	case err := <-errc:
		t.Fatalf("chaos worker: %v", err)
	default:
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Cold restart, then line-by-line parity against the reference that
	// replayed the same stream (compacted, since the store compacted).
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after chaos: %v", err)
	}
	defer s2.Close()
	d := graph.NewDynamic(g)
	for _, e := range edges {
		if err := d.AddEdge(e[0], e[1]); err != nil {
			t.Fatalf("reference AddEdge: %v", err)
		}
	}
	if err := d.Compact(); err != nil {
		t.Fatalf("reference Compact: %v", err)
	}
	if err := s2.Compact(); err != nil {
		t.Fatalf("survivor Compact: %v", err)
	}
	if s2.NumEdges() != d.NumEdges() {
		t.Fatalf("edge counts diverge after chaos: store %d reference %d", s2.NumEdges(), d.NumEdges())
	}
	var abuf []float32
	for v := int64(0); v < g.NumNodes(); v++ {
		id := graph.NodeID(v)
		if got, want := s2.Neighbors(id), d.Neighbors(id); !equalIDs(got, want) {
			t.Fatalf("node %d adjacency diverged after chaos: got %v want %v", v, got, want)
		}
		abuf = abuf[:0]
		if got, want := s2.Attr(abuf, id), g.Attr(nil, id); !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d attrs diverged after chaos", v)
		}
	}
}
