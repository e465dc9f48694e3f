// Command lsdgnn-sim runs the PoC-style AxE simulator with configurable
// parameters and prints functional and timing results for one batch —
// the interactive counterpart of the Figure 15 grid.
//
// Example:
//
//	lsdgnn-sim -dataset ls -cores 4 -channels 2 -nodes 4 -batch 256
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"lsdgnn/internal/axe"
	"lsdgnn/internal/cluster"
	"lsdgnn/internal/graph"
	"lsdgnn/internal/memsys"
	"lsdgnn/internal/sampler"
	"lsdgnn/internal/workload"
)

func main() {
	dataset := flag.String("dataset", "ls", "Table 2 dataset (ss, ls, sl, ml, ll, syn)")
	cores := flag.Int("cores", 2, "AxE cores")
	channels := flag.Int("channels", 4, "local DDR channels (0 = PCIe host memory)")
	nodes := flag.Int("nodes", 4, "FPGA node count (graph partitions)")
	batch := flag.Int("batch", 256, "mini-batch size (roots)")
	window := flag.Int("window", 64, "OoO outstanding-request window per core")
	depth := flag.Int("depth", 8, "GetNeighbor pipeline depth")
	cache := flag.Int("cache", 8<<10, "coalescing cache bytes per core")
	method := flag.String("method", "streaming", "sampling method: streaming | reservoir")
	seed := flag.Int64("seed", 42, "seed")
	flag.Parse()

	ds, err := workload.DatasetByName(*dataset)
	if err != nil {
		fatal(err)
	}
	cfg := axe.DefaultConfig()
	cfg.Cores = *cores
	cfg.Window = *window
	cfg.PipelineDepth = *depth
	cfg.CacheBytes = *cache
	if *channels == 0 {
		cfg.Local = memsys.PCIeHostDRAM()
		cfg.LocalChannels = 1
		cfg.OutputSharesLocal = true
	} else {
		cfg.LocalChannels = *channels
	}
	switch *method {
	case "streaming":
		cfg.Sampling.Method = sampler.Streaming
	case "reservoir":
		cfg.Sampling.Method = sampler.Reservoir
	default:
		fatal(fmt.Errorf("unknown method %q", *method))
	}
	cfg.Sampling.Seed = *seed

	g := ds.Build(*seed)
	fmt.Printf("graph %s: %d nodes (scaled), avg degree %.1f, attr %d floats\n",
		ds.Name, g.NumNodes(), g.AvgDegree(), g.AttrLen())

	eng, err := axe.New(g, cluster.HashPartitioner{N: *nodes}, 0, cfg)
	if err != nil {
		fatal(err)
	}
	rng := rand.New(rand.NewSource(*seed))
	roots := make([]graph.NodeID, *batch)
	for i := range roots {
		roots[i] = graph.NodeID(rng.Int63n(g.NumNodes()))
	}
	res := sampler.New(sampler.LocalStore{G: g}, cfg.Sampling).SampleBatch(roots)
	st := eng.RunBatch(res)

	fmt.Printf("batch: %d roots, %d hop-1, %d hop-2, %d negatives, %d attr vectors\n",
		len(res.Roots), len(res.Hops[0]), len(res.Hops[1]), len(res.Negatives),
		res.NodesFetched(g.AttrLen()))
	fmt.Printf("simulated time:    %v\n", st.SimTime)
	fmt.Printf("throughput:        %.0f roots/s (%.2fM sampled nodes/s)\n",
		st.RootsPerSecond, st.SamplesPerSecond/1e6)
	fmt.Printf("memory traffic:    local %.2f MB (%d reqs), remote %.2f MB (%d reqs)\n",
		float64(st.LocalBytes)/1e6, st.LocalRequests,
		float64(st.RemoteBytes)/1e6, st.RemoteRequests)
	fmt.Printf("output traffic:    %.2f MB (link %.0f%% busy)\n",
		float64(st.OutputBytes)/1e6, st.OutputUtilization*100)
	fmt.Printf("coalescing cache:  %.1f%% line hits\n", st.CacheHitRate*100)
	fmt.Printf("unit utilization:  pipeline %.0f%%, sample %.0f%%, attr %.0f%%, local-mem %.0f%%\n",
		st.PipelineUtilization*100, st.SampleUtilization*100,
		st.AttrUtilization*100, st.LocalUtilization*100)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lsdgnn-sim:", err)
	os.Exit(1)
}
