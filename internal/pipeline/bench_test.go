package pipeline

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"lsdgnn/internal/cluster"
	"lsdgnn/internal/graph"
	"lsdgnn/internal/sampler"
)

// BenchmarkConcurrentBatches is the measurement DefaultWindow rests on
// (the six-cell table in CHANGES.md, PR 22): ns/op is wall time per 32-root
// batch — inverse throughput — with 1, 4 and 8 callers sharing one executor
// over an in-process 4-shard client at 0 and 200 µs RTT, at the
// default window and at the old 256. It uses only API the parent of PR 22
// also has, so the same file dropped into that tree measures the other side:
//
//	go test ./internal/pipeline -run '^$' -bench ConcurrentBatches -benchtime 192x -count 5
func BenchmarkConcurrentBatches(b *testing.B) {
	const nodes = 100000
	g := graph.Generate(graph.GenConfig{NumNodes: nodes, AvgDegree: 12, AttrLen: 64, Seed: 7, PowerLaw: true})
	part := cluster.HashPartitioner{N: 4}
	servers := make([]*cluster.Server, 4)
	for i := range servers {
		servers[i] = cluster.NewServer(g, part, i)
	}
	cfg := sampler.Config{Fanouts: []int{10, 10}, NegativeRate: 10, Method: sampler.Streaming, FetchAttrs: true, Seed: 1}
	for _, rtt := range []time.Duration{0, 200 * time.Microsecond} {
		var tr cluster.Transport = cluster.DirectTransport{Servers: servers}
		if rtt > 0 {
			tr = cluster.DelayedTransport{Inner: tr, Delay: rtt}
		}
		client, err := cluster.NewClient(tr, part, -1)
		if err != nil {
			b.Fatal(err)
		}
		for _, window := range []int{0, 256} {
			for _, callers := range []int{1, 4, 8} {
				ex := New(client, cfg, Config{Window: window})
				b.Run(fmt.Sprintf("rtt%dus/w%d/c%d", rtt.Microseconds(), ex.Config().Window, callers), func(b *testing.B) {
					var wg sync.WaitGroup
					for c := 0; c < callers; c++ {
						wg.Add(1)
						go func(c int) {
							defer wg.Done()
							roots := make([]graph.NodeID, 32)
							for i := c; i < b.N; i += callers {
								for j := range roots {
									roots[j] = graph.NodeID((c*7919 + i*104729 + j*613) % nodes)
								}
								res, err := ex.Sample(bg, roots)
								if err != nil {
									b.Error(err)
									return
								}
								res.Release()
							}
						}(c)
					}
					wg.Wait()
				})
			}
		}
	}
}
