// Quickstart: build a small e-commerce-style graph, assemble an LSD-GNN
// system, and sample one mini-batch through its one serving route — the
// windowed executor over the cluster client — both on its own and as an
// accelerated batch that a modeled AxE engine then times, checking the two
// agree byte for byte and reporting modeled throughput.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"reflect"
	"time"

	"lsdgnn"
)

func main() {
	// A scaled power-law graph: 10k nodes, avg degree 12, 64-float attrs.
	g := lsdgnn.GenerateGraph(10_000, 12, 64, 7)
	fmt.Printf("graph: %d nodes, %d edges, attr %d floats (%.1f MB footprint)\n",
		g.NumNodes(), g.NumEdges(), g.AttrLen(), float64(g.FootprintBytes())/1e6)

	// Assemble a 4-partition deployment with default (PoC) engines.
	sys, err := lsdgnn.New("",
		lsdgnn.WithGraph(g),
		lsdgnn.WithServers(4),
		lsdgnn.WithSeed(7),
	)
	if err != nil {
		log.Fatal(err)
	}

	roots := sys.BatchSource(128, 1).Next()

	// Every request path takes a context; the deadline bounds the whole
	// batch, aborting in-flight fan-out RPCs if it expires.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Pipelined path: the batch through the windowed executor (the
	// software model of the AxE load unit, Tech-3), fetched over the
	// cluster client one vector request per hop.
	pl, err := sys.Pipeline.Sample(ctx, roots)
	if err != nil {
		log.Fatal(err)
	}
	ps := sys.Pipeline.Stats()
	fmt.Printf("pipelined:   %d roots -> %d + %d sampled nodes, %d negatives, in-flight peak %d requests\n",
		len(pl.Roots), len(pl.Hops[0]), len(pl.Hops[1]), len(pl.Negatives), ps.InflightPeak())
	fmt.Printf("             %.1f%% of requests were fine-grained structure reads\n",
		sys.Client.Access.StructureRequestShare()*100)
	if raw, wire := sys.Client.Pack.RawBytes(), sys.Client.Pack.WireBytes(); raw > 0 {
		fmt.Printf("             MoF sections: %d frames, wire bytes %.0f%% of their bare-vector equivalent\n",
			sys.Client.Pack.Frames(), float64(wire)/float64(raw)*100)
	}

	// Accelerated path: the same batch sampled over the same wire, then
	// placed by the dispatcher on the least-loaded AxE engine, which
	// replays the modeled time of producing it.
	hw, stats, err := sys.Sample(ctx, roots)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("accelerated: %d roots -> %d + %d sampled nodes in %v (modeled)\n",
		len(hw.Roots), len(hw.Hops[0]), len(hw.Hops[1]), stats.SimTime)
	fmt.Printf("             %.0f roots/s, cache hit %.0f%%, output link %.0f%% busy\n",
		stats.RootsPerSecond, stats.CacheHitRate*100, stats.OutputUtilization*100)

	// Every draw comes from a stream derived from (seed, root, hop,
	// position), so both calls return the same batch.
	if !reflect.DeepEqual(hw.Hops, pl.Hops) || !reflect.DeepEqual(hw.Negatives, pl.Negatives) ||
		!reflect.DeepEqual(hw.Attrs, pl.Attrs) {
		log.Fatal("accelerated batch differs from the pipelined batch")
	}
	fmt.Println("pipelined and accelerated results are byte-identical ✓")

	// Storage beyond RAM: the same deployment, but the partition servers
	// answer from a persistent mmap CSR + WAL store with a page-cache
	// budget instead of holding the graph in process memory. A store path
	// is all it takes; sampling results are byte-identical.
	dir, err := os.MkdirTemp("", "lsdgnn-quickstart-store")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	dsys, err := lsdgnn.New("",
		lsdgnn.WithGraph(g),
		lsdgnn.WithServers(4),
		lsdgnn.WithSeed(7),
		lsdgnn.WithStore(lsdgnn.StoreConfig{Path: dir, MemoryBudget: 8 << 20}),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer dsys.Close()
	dpl, err := dsys.Pipeline.Sample(ctx, roots)
	if err != nil {
		log.Fatal(err)
	}
	for i := range pl.Attrs {
		if pl.Attrs[i] != dpl.Attrs[i] {
			log.Fatalf("disk-backed attr %d diverged: %v != %v", i, dpl.Attrs[i], pl.Attrs[i])
		}
	}
	fmt.Printf("disk-backed: same batch from a %s store under an 8 MB budget — byte-identical ✓\n", dir)
}
