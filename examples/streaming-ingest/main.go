// Streaming ingest: the dynamic-graph capability the paper credits
// AliGraph with (Section 2.4), on the persistent storage tier. An
// e-commerce event stream appends edges to a durable store — every event
// lands in the write-ahead log before it is acknowledged — while sampling
// keeps running over base segment + memtable; periodic compaction folds
// the memtable into a new immutable CSR segment generation. New
// interactions become samplable immediately, survive a crash, and no
// rebuild pause ever stops the samplers.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"lsdgnn"
	"lsdgnn/internal/sampler"
)

func main() {
	const (
		nodes          = 20_000
		batches        = 5
		eventsPerBatch = 3_000
	)
	dir := filepath.Join(os.TempDir(), fmt.Sprintf("lsdgnn-ingest-%d", os.Getpid()))
	defer os.RemoveAll(dir)

	// Bulk-load the nightly snapshot into an immutable CSR segment, then
	// open the store the event stream will append to.
	base := lsdgnn.GenerateGraph(nodes, 8, 32, 99)
	if err := lsdgnn.CreateStore(dir, base); err != nil {
		log.Fatal(err)
	}
	live, err := lsdgnn.OpenDiskStore(lsdgnn.StoreConfig{Path: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer live.Close()
	fmt.Printf("base segment: %d nodes, %d edges (generation %d)\n",
		live.NumNodes(), live.NumEdges(), live.Generation())

	// The disk store serves the same batch-first contract as the in-memory
	// backends, so the sampler does not know it is reading from disk.
	s := sampler.New(live, sampler.Config{
		Fanouts: []int{5, 5}, Method: sampler.Streaming, Seed: 99,
	})
	rng := rand.New(rand.NewSource(99))

	for b := 0; b < batches; b++ {
		// Ingest a burst of purchase events. Each append is WAL-logged
		// before the in-memory memtable sees it.
		for i := 0; i < eventsPerBatch; i++ {
			src := lsdgnn.NodeID(rng.Int63n(nodes))
			dst := lsdgnn.NodeID(rng.Int63n(nodes))
			if src == dst {
				continue
			}
			if err := live.AddEdge(src, dst); err != nil {
				log.Fatal(err)
			}
		}
		// Sample over the live store — memtable edges included.
		roots := make([]lsdgnn.NodeID, 64)
		for i := range roots {
			roots[i] = lsdgnn.NodeID(rng.Int63n(nodes))
		}
		res, err := s.Sample(context.Background(), roots)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("batch %d: %d total edges (%d pending in memtable), sampled %d nodes\n",
			b, live.NumEdges(), live.DeltaEdges(), len(res.Hops[0])+len(res.Hops[1]))

		// Compact every other batch: stream base segment + memtable into a
		// new segment generation, commit it, drop the folded WAL.
		if b%2 == 1 {
			if err := live.Compact(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("         compacted: memtable now %d, generation %d\n",
				live.DeltaEdges(), live.Generation())
		}
	}

	// Crash recovery drill: drop the handle without compaction — edges
	// acked since the last compaction live only in the WAL — and reopen.
	// Replay rebuilds the memtable exactly.
	edgesBefore, pendingBefore := live.NumEdges(), live.DeltaEdges()
	live.Close()
	reopened, err := lsdgnn.OpenDiskStore(lsdgnn.StoreConfig{Path: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer reopened.Close()
	fmt.Printf("reopened: %d edges (%d replayed from WAL, want %d)\n",
		reopened.NumEdges(), reopened.DeltaEdges(), pendingBefore)
	if reopened.NumEdges() != edgesBefore {
		log.Fatalf("lost edges across restart: %d != %d", reopened.NumEdges(), edgesBefore)
	}
	fmt.Println("durable ingestion, sampling, compaction and recovery all interleave cleanly ✓")
}
