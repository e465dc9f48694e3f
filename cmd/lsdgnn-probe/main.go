// Command lsdgnn-probe is a wire-level load driver: it dials a running
// lsdgnn-server cluster, pushes sampling batches through the serving
// route — the windowed executor over the cluster client — and reports
// what crossed the wire:
//
//	lsdgnn-probe -addrs 127.0.0.1:7001,127.0.0.1:7002 -batches 8
//
// With -replicas the address list covers a replicated tier in
// UniformLayout order (replica r of partition p at index r*partitions+p),
// and the client fails over between replicas under the stock retry and
// breaker policy. Against a -tenants server, -key names the tenant every
// frame is sent as. The probe exits non-zero on the first failed batch
// and prints "probe: OK" otherwise.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"lsdgnn/internal/cluster"
	"lsdgnn/internal/graph"
	"lsdgnn/internal/obs"
	"lsdgnn/internal/pipeline"
	"lsdgnn/internal/sampler"
	"lsdgnn/internal/workload"
)

func main() {
	addrs := flag.String("addrs", "127.0.0.1:7001", "comma-separated server addresses, one per partition (UniformLayout order)")
	batches := flag.Int("batches", 8, "sampling batches to drive")
	batchSize := flag.Int("batch-size", 64, "roots per batch")
	workers := flag.Int("workers", 4, "concurrent batch drivers")
	fanout := flag.Int("fanout", 10, "neighbors sampled per hop (2 hops)")
	seed := flag.Int64("seed", 1, "root-selection and sampling seed")
	timeout := flag.Duration("timeout", 2*time.Minute, "overall deadline")
	replicas := flag.Int("replicas", 1, "replicas per partition; addrs must list partitions×replicas servers in UniformLayout order")
	apiKey := flag.String("key", "", "tenant API key sent with every frame (required against a -tenants server)")
	flag.Parse()

	endpoints := strings.Split(*addrs, ",")
	if len(endpoints) == 0 || *batches <= 0 || *batchSize <= 0 || *workers <= 0 {
		fatal(fmt.Errorf("need at least one address and positive batch/worker counts"))
	}
	if *replicas < 1 || len(endpoints)%*replicas != 0 {
		fatal(fmt.Errorf("%d addresses do not divide into %d replicas per partition", len(endpoints), *replicas))
	}
	partitions := len(endpoints) / *replicas
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	transport := cluster.DialTCP(endpoints, 2)
	defer transport.Close()
	part := cluster.HashPartitioner{N: partitions}
	// Always trace: each request then carries its batch's trace ID in the
	// frame header, which is what lets the server attach exemplars and span
	// timelines (its /trace/{id}) to this probe's traffic.
	tracer := obs.NewTracer()
	opts := []cluster.ClientOption{cluster.WithTracer(tracer)}
	if *apiKey != "" {
		opts = append(opts, cluster.WithAPIKey(*apiKey))
	}
	opts = append(opts, cluster.WithLayout(cluster.UniformLayout(partitions, *replicas)))
	if *replicas > 1 {
		// A replicated tier gets the stock retry/breaker policy.
		opts = append(opts, cluster.WithResilience(cluster.DefaultResilienceConfig()))
	}
	client, err := cluster.NewClientContext(ctx, transport, part, -1, opts...)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("connected: %d partitions ×%d replicas, %d nodes, attr %d floats, protocol v%d\n",
		partitions, *replicas, client.NumNodes(), client.AttrLen(), client.NegotiatedVersion())

	cfg := sampler.Config{
		Fanouts: []int{*fanout, *fanout}, NegativeRate: 4,
		Method: sampler.Streaming, FetchAttrs: true, Seed: *seed,
	}
	// Every batch flows through the windowed executor (the software AxE
	// load unit), as it does inside a System.
	ex := pipeline.New(client, cfg, pipeline.Config{})
	ex.SetTracer(tracer)
	src := workload.NewBatchSource(client.NumNodes(), *batchSize, *seed)
	work := make([][]graph.NodeID, *batches)
	for i := range work {
		work[i] = append([]graph.NodeID(nil), src.Next()...)
	}

	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	next, sampled := 0, 0
	var firstErr error
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(work) || firstErr != nil {
					mu.Unlock()
					return
				}
				b := next
				next++
				mu.Unlock()
				res, err := ex.Sample(ctx, work[b])
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if res != nil {
					sampled += len(res.Roots)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		fatal(firstErr)
	}

	tr := client.Traffic.Snapshot()
	fmt.Printf("drove %d batches (%d roots) in %v: %d RPCs, %.1f KB up, %.1f KB down\n",
		*batches, sampled, time.Since(start).Round(time.Millisecond),
		tr.Requests, float64(tr.RequestBytes)/1e3, float64(tr.ResponseBytes)/1e3)
	ps := &client.Pack
	if ps.Frames() == 0 {
		fatal(fmt.Errorf("no packed frames sent"))
	}
	fmt.Printf("wire: %d sectioned frames at %.0f%% of their bare-vector bytes, %d duplicate attr IDs folded\n",
		ps.Frames(), float64(ps.WireBytes())/float64(ps.RawBytes())*100, ps.Dedup())
	st := ex.Stats()
	fmt.Printf("pipeline: window %d, in-flight peak %d, %d requests issued, %d stalls\n",
		ex.Config().Window, st.InflightPeak(), st.IssuedRequests(), st.WindowStalls())
	fmt.Println("probe: OK")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lsdgnn-probe:", err)
	os.Exit(1)
}
