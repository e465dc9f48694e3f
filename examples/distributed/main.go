// Distributed: spins up a real 4-partition TCP graph cluster in-process
// (the same servers cmd/lsdgnn-server runs standalone) with one replica per
// partition, connects a sampling worker over the wire protocol, and runs
// mini-batch k-hop sampling across the sockets — the control plane of the
// paper's storage tier, end to end. The primaries are chaos-injected
// (20% of requests fail), so the client's resilience layer (retries,
// circuit breakers, replica failover) is what keeps every batch whole.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"lsdgnn/internal/cluster"
	"lsdgnn/internal/graph"
	"lsdgnn/internal/obs"
	"lsdgnn/internal/sampler"
	"lsdgnn/internal/workload"
)

func main() {
	const partitions, replicas = 4, 2
	ds, err := workload.DatasetByName("ss")
	if err != nil {
		log.Fatal(err)
	}
	g := ds.Build(42)
	part := cluster.HashPartitioner{N: partitions}

	// Launch replicas×partitions TCP servers on loopback, laid out as
	// cluster.UniformLayout expects: endpoints [0,partitions) are the
	// primaries, the next block the replicas. Primaries misbehave.
	addrs := make([]string, partitions*replicas)
	for r := 0; r < replicas; r++ {
		for p := 0; p < partitions; p++ {
			var h cluster.Handler = cluster.NewServer(g, part, p)
			role := "replica"
			if r == 0 {
				h = cluster.NewFaultyHandler(h, cluster.FaultSpec{ErrRate: 0.2}, int64(p)+1)
				role = "primary, 20% chaos"
			}
			srv, err := cluster.ServeTCP(h, "127.0.0.1:0")
			if err != nil {
				log.Fatal(err)
			}
			defer srv.Close()
			addrs[r*partitions+p] = srv.Addr()
			fmt.Printf("partition %d (%s) serving on %s\n", p, role, srv.Addr())
		}
	}

	// A worker dials all endpoints, routes by the replicated layout, and
	// samples across the wire with the resilience policy: bounded retries
	// with backoff + jitter, a circuit breaker per endpoint, and failover
	// onto the replica set.
	transport := cluster.DialTCP(addrs, 2)
	defer transport.Close()
	tracer := obs.NewTracer()
	client, err := cluster.NewClientContext(context.Background(), transport, part, -1,
		cluster.WithTracer(tracer),
		cluster.WithLayout(cluster.UniformLayout(partitions, replicas)),
		cluster.WithResilience(cluster.DefaultResilienceConfig()))
	if err != nil {
		log.Fatal(err)
	}

	cfg := sampler.Config{
		Fanouts: []int{10, 10}, NegativeRate: 10,
		Method: sampler.Streaming, FetchAttrs: true, Seed: 42,
	}
	roots := make([]graph.NodeID, 128)
	src := workload.NewBatchSource(g.NumNodes(), len(roots), 1)
	copy(roots, src.Next())

	// A per-batch deadline bounds tail latency: if any partition stalls,
	// the in-flight RPCs are aborted and the error surfaces here.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := sampler.KHop(ctx, client, cfg, roots)
	if err != nil {
		log.Fatal(err)
	}
	traffic := client.Traffic.Snapshot()
	fmt.Printf("\nsampled %d roots over TCP: %d + %d nodes, %d negatives, %d attr vectors\n",
		len(res.Roots), len(res.Hops[0]), len(res.Hops[1]), len(res.Negatives),
		res.NodesFetched(client.AttrLen()))
	fmt.Printf("wire traffic: %d RPCs, %.1f KB requests, %.1f KB responses\n",
		traffic.Requests, float64(traffic.RequestBytes)/1e3, float64(traffic.ResponseBytes)/1e3)
	fmt.Printf("fine-grained structure requests: %.1f%% of all requests (paper: ~48%%)\n",
		client.Access.StructureRequestShare()*100)
	rs := client.Res.Snapshot()
	fmt.Printf("resilience: %d retries, %d failovers to replicas, %d breaker rejects — batch intact despite injected chaos\n",
		rs.Retries, rs.Failovers, rs.BreakerRejects)
	if raw, wire := client.Pack.RawBytes(), client.Pack.WireBytes(); raw > 0 {
		fmt.Printf("MoF sections: %d frames, wire bytes %.0f%% of their bare-vector equivalent\n",
			client.Pack.Frames(), float64(wire)/float64(raw)*100)
	}

	// The trace carried over the wire in the frame header: the batch's latency
	// split hop by hop — RPC machinery vs socket time vs server handler.
	fmt.Println("\nper-hop latency (traced over TCP):")
	for _, hop := range []string{obs.HopBatch, obs.HopRPC, obs.HopWire, obs.HopServer} {
		h := tracer.Hop(hop)
		if h.Count == 0 {
			continue
		}
		fmt.Printf("  %-8s n=%-4d p50=%-10v p99=%-10v max=%v\n", hop, h.Count,
			time.Duration(h.Quantile(0.5)*float64(time.Second)).Round(time.Microsecond),
			time.Duration(h.Quantile(0.99)*float64(time.Second)).Round(time.Microsecond),
			time.Duration(h.Max*float64(time.Second)).Round(time.Microsecond))
	}
}
