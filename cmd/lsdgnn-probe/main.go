// Command lsdgnn-probe is a wire-level load driver: it dials a running
// lsdgnn-server cluster and pushes sampling batches through the serving
// route — the windowed executor over the cluster client — then reports
// what crossed the wire and prints the executor's lsdgnn_pipeline_*
// series.
//
// It exists for smoke tests (scripts/wire_smoke.sh drives a burst and then
// asserts the server's /metrics counted its sectioned frames) and for
// eyeballing the wire bytes against a live cluster:
//
//	lsdgnn-probe -addrs 127.0.0.1:7001,127.0.0.1:7002 -batches 8
//
// The probe routes by a versioned layout. With -replicas the address list
// covers a replicated tier in UniformLayout order (replica r of partition
// p at index r*partitions+p); -drain-endpoint then
// rehearses a live replica rotation mid-burst, and -layout prints the
// lsdgnn_cluster_layout_* series the rotation moved:
//
//	lsdgnn-probe -addrs :7001,:7002,:7011,:7012 -replicas 2 \
//	    -drain-endpoint 2 -layout
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
	"lsdgnn/internal/mem"
	"lsdgnn/internal/obs"
	"lsdgnn/internal/pipeline"
	"lsdgnn/internal/sampler"
	"lsdgnn/internal/stats"
	"lsdgnn/internal/workload"
)

func main() {
	addrs := flag.String("addrs", "127.0.0.1:7001", "comma-separated server addresses, one per partition (UniformLayout order)")
	batches := flag.Int("batches", 8, "sampling batches to drive")
	batchSize := flag.Int("batch-size", 64, "roots per batch")
	workers := flag.Int("workers", 4, "concurrent batch drivers")
	fanout := flag.Int("fanout", 10, "neighbors sampled per hop (2 hops)")
	memStats := flag.Bool("mem", false, "print the client-side lsdgnn_mem_* buffer-pool metrics after the burst")
	pipeWindow := flag.Int("pipeline-window", 0, "in-flight window of the executor in node-requests, shared by all workers (0 = default 8192)")
	seed := flag.Int64("seed", 1, "root-selection and sampling seed")
	timeout := flag.Duration("timeout", 2*time.Minute, "overall deadline")
	replicas := flag.Int("replicas", 1, "replicas per partition; addrs must list partitions×replicas servers in UniformLayout order")
	layoutStats := flag.Bool("layout", false, "print the client-side lsdgnn_cluster_layout_* elastic-layout metrics after the burst")
	sloStats := flag.Bool("slo", false, "classify batches against a client-side probe_batch latency objective and print the lsdgnn_slo_* series after the burst")
	sloThreshold := flag.Duration("slo-threshold", 50*time.Millisecond, "probe_batch objective budget (with -slo)")
	drainEndpoint := flag.Int("drain-endpoint", -1, "drain this endpoint out of the layout mid-burst (requires -replicas > 1, its partition keeps serving replicas)")
	drainAfter := flag.Duration("drain-after", 50*time.Millisecond, "delay before the -drain-endpoint rotation starts")
	tenant := flag.String("tenant", "", "tenant name this probe drives traffic as (label for output only)")
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
	if *drainEndpoint >= len(endpoints) {
		fatal(fmt.Errorf("drain endpoint %d not in the %d-address layout", *drainEndpoint, len(endpoints)))
	}
	if *drainEndpoint >= 0 && *replicas < 2 {
		fatal(fmt.Errorf("draining endpoint %d would leave its partition unserved: need -replicas > 1", *drainEndpoint))
	}
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
	// load unit), which owns the batch latency and the SLO hook.
	ex := pipeline.New(client, cfg, pipeline.Config{Window: *pipeWindow})
	ex.SetTracer(tracer)
	slos := stats.NewSLOTracker()
	if *sloStats {
		ex.SetSLO(slos.Objective(stats.Objective{Name: "probe_batch", Threshold: *sloThreshold}))
	}
	src := workload.NewBatchSource(client.NumNodes(), *batchSize, *seed)
	work := make([][]graph.NodeID, *batches)
	for i := range work {
		work[i] = append([]graph.NodeID(nil), src.Next()...)
	}

	// The drain rehearsal runs while workers drive traffic: mark the
	// endpoint draining (routing stops, in-flight frames finish), remove
	// it, and let the remaining replicas absorb the rest of the burst.
	drainDone := make(chan error, 1)
	if *drainEndpoint >= 0 {
		ep := *drainEndpoint
		go func() {
			timer := time.NewTimer(*drainAfter)
			defer timer.Stop()
			select {
			case <-timer.C:
			case <-ctx.Done():
				drainDone <- ctx.Err()
				return
			}
			drainDone <- client.DrainReplica(ctx, ep%partitions, ep)
		}()
	} else {
		drainDone <- nil
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
	if err := <-drainDone; err != nil {
		fatal(fmt.Errorf("drain endpoint %d: %w", *drainEndpoint, err))
	}
	if *drainEndpoint >= 0 {
		l := client.Layout()
		if l == nil || l.Contains(*drainEndpoint) {
			fatal(fmt.Errorf("endpoint %d still in the layout after drain", *drainEndpoint))
		}
		fmt.Printf("drained endpoint %d: epoch %d, partition %d now on %v\n",
			*drainEndpoint, l.Epoch, *drainEndpoint%partitions, l.Routable(*drainEndpoint%partitions))
	}

	tr := client.Traffic.Snapshot()
	as := ""
	if *tenant != "" {
		as = fmt.Sprintf(" as tenant %q", *tenant)
	}
	fmt.Printf("drove %d batches (%d roots)%s in %v: %d RPCs, %.1f KB up, %.1f KB down\n",
		*batches, sampled, as, time.Since(start).Round(time.Millisecond),
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
	// Exposition block for smoke tests: the executor lives client-side, so
	// the probe prints its own lsdgnn_pipeline_* series (the server
	// pre-registers the same schema at zero).
	if _, err := stats.WritePrometheus(os.Stdout, []stats.Snapshot{st.StatsSnapshot()}); err != nil {
		fatal(err)
	}
	if *layoutStats {
		// Exposition block for smoke tests: the layout lives client-side,
		// so the probe prints its own lsdgnn_cluster_layout_* series (the
		// server pre-registers the same schema at zero).
		if _, err := stats.WritePrometheus(os.Stdout, []stats.Snapshot{client.Lay.StatsSnapshot()}); err != nil {
			fatal(err)
		}
	}
	if *sloStats {
		// Exposition block for smoke tests: the objective classifies the
		// executor's view of batch latency, server-side effects included.
		if _, err := stats.WritePrometheus(os.Stdout, []stats.Snapshot{slos.StatsSnapshot()}); err != nil {
			fatal(err)
		}
	}
	if *memStats {
		// Exposition block for smoke tests: buffer pools are process-local,
		// so the probe prints its own client-side lsdgnn_mem_* series (the
		// server pre-registers the same schema at zero). After a burst with
		// every batch retired, scratch buffers must all be back in the pools.
		if out := mem.Outstanding(); out != 0 {
			fatal(fmt.Errorf("mem: %d scratch buffers still outstanding after burst", out))
		}
		if _, err := stats.WritePrometheus(os.Stdout, []stats.Snapshot{mem.Snapshot()}); err != nil {
			fatal(err)
		}
	}
	fmt.Println("probe: OK")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lsdgnn-probe:", err)
	os.Exit(1)
}
