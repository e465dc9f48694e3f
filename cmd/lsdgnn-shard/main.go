// Command lsdgnn-shard prepares per-partition shards for distributed
// deployment. It has two modes:
//
// split (the default) writes one graph.Save file per partition; each
// lsdgnn-server then loads only its shard (-graph prefix.N.lsdg), holding
// ~1/P of the edges while answering identically for the nodes it owns:
//
//	lsdgnn-shard -in graph.lsdg -partitions 4 -out shards/g
//	# writes shards/g.0.lsdg … shards/g.3.lsdg
//
// bulk-load writes one persistent store directory (immutable mmap CSR
// segment + commit files, see internal/store) per partition, ready for
// lsdgnn-server -store-path — the larger-than-RAM deployment path where
// a storage node boots by opening its segment instead of rebuilding or
// re-loading the dataset:
//
//	lsdgnn-shard -mode bulk-load -in graph.lsdg -partitions 4 -out /data/shards
//	# writes /data/shards/shard-0 … /data/shards/shard-3
//	lsdgnn-server -addr :7001 -partition 0 -partitions 4 -store-path /data/shards/shard-0
//
// With -dataset instead of -in, either mode shards a Table 2 dataset
// built from -seed, so a cluster can be prepared without an intermediate
// graph file.
//
// ingest appends random edges to an existing store directory through the
// write-ahead log and exits WITHOUT compacting, so the records stay in
// the WAL and the next open must replay them — the crash-recovery drill
// the smoke test's store subtest runs against a kill -9'd server:
//
//	lsdgnn-shard -mode ingest -store /data/shards/shard-0 -edges 50 -sync
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"lsdgnn/internal/cluster"
	"lsdgnn/internal/graph"
	"lsdgnn/internal/store"
	"lsdgnn/internal/workload"
)

func main() {
	mode := flag.String("mode", "split", "split: per-partition graph.Save files; bulk-load: per-partition persistent store directories for lsdgnn-server -store-path; ingest: append WAL edges to an existing store")
	in := flag.String("in", "", "input graph file (graph.Save format)")
	dataset := flag.String("dataset", "", "shard a Table 2 dataset instead of a graph file")
	seed := flag.Int64("seed", 42, "with -dataset: graph generation seed (must match the servers'); with -mode ingest: the edge-stream seed")
	out := flag.String("out", "shard", "split: output path prefix; bulk-load: output directory holding shard-N store directories")
	partitions := flag.Int("partitions", 4, "partition count")
	storeDir := flag.String("store", "", "with -mode ingest: the store directory to append to")
	edges := flag.Int("edges", 50, "with -mode ingest: how many edges to append")
	syncWAL := flag.Bool("sync", false, "with -mode ingest: fsync the WAL per append (every edge survives kill -9)")
	flag.Parse()
	if *mode == "ingest" {
		if *storeDir == "" {
			fmt.Fprintln(os.Stderr, "usage: lsdgnn-shard -mode ingest -store dir [-edges N] [-sync] [-seed S]")
			os.Exit(2)
		}
		if err := ingest(*storeDir, *edges, *syncWAL, *seed); err != nil {
			fatal(err)
		}
		return
	}
	if (*in == "") == (*dataset == "") {
		fmt.Fprintln(os.Stderr, "usage: lsdgnn-shard [-mode split|bulk-load] (-in graph.lsdg | -dataset name) -partitions N -out prefix")
		os.Exit(2)
	}
	var g *graph.Graph
	if *in != "" {
		loaded, err := graph.Load(*in)
		if err != nil {
			fatal(err)
		}
		g = loaded
		fmt.Printf("loaded %s: %d nodes, %d edges\n", *in, g.NumNodes(), g.NumEdges())
	} else {
		ds, err := workload.DatasetByName(*dataset)
		if err != nil {
			fatal(err)
		}
		g = ds.Build(*seed)
		fmt.Printf("built %s: %d nodes, %d edges\n", ds.Name, g.NumNodes(), g.NumEdges())
	}
	part := cluster.HashPartitioner{N: *partitions}
	for p := 0; p < *partitions; p++ {
		shard, err := cluster.ExtractShard(g, part, p)
		if err != nil {
			fatal(err)
		}
		switch *mode {
		case "split":
			path := fmt.Sprintf("%s.%d.lsdg", *out, p)
			if err := shard.Save(path); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s: %d edges (%.1f%% of total)\n",
				path, shard.NumEdges(), 100*float64(shard.NumEdges())/float64(g.NumEdges()))
		case "bulk-load":
			dir := filepath.Join(*out, fmt.Sprintf("shard-%d", p))
			if err := store.Create(dir, shard); err != nil {
				fatal(err)
			}
			fi, err := os.Stat(filepath.Join(dir, "seg-1.lsds"))
			if err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s: %d edges in a %d-byte segment (%.1f%% of total edges)\n",
				dir, shard.NumEdges(), fi.Size(), 100*float64(shard.NumEdges())/float64(g.NumEdges()))
		default:
			fatal(fmt.Errorf("unknown mode %q (want split or bulk-load)", *mode))
		}
	}
}

// ingest appends random edges through the WAL and exits without
// compacting: the records remain in the log, so the next open of the
// directory must replay them.
func ingest(dir string, edges int, syncWAL bool, seed int64) error {
	var opts []store.Option
	if syncWAL {
		opts = append(opts, store.WithSyncMode(store.SyncAlways))
	}
	ds, err := store.Open(dir, opts...)
	if err != nil {
		return err
	}
	defer ds.Close()
	n := ds.NumNodes()
	if n < 2 {
		return fmt.Errorf("store at %s has %d nodes", dir, n)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < edges; i++ {
		src := graph.NodeID(rng.Int63n(n))
		dst := graph.NodeID(rng.Int63n(n))
		if err := ds.AddEdge(src, dst); err != nil {
			return err
		}
	}
	fmt.Printf("ingested %d edges into %s (left in the WAL for replay; %d pending)\n",
		edges, dir, ds.DeltaEdges())
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lsdgnn-shard:", err)
	os.Exit(1)
}
