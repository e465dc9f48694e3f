package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"lsdgnn/internal/obs"
	"lsdgnn/internal/sampler"
)

// TestTracedSampleDirect runs a traced batch over the in-process transport
// and checks the full per-hop breakdown plus the span log.
func TestTracedSampleDirect(t *testing.T) {
	g := testGraph(t)
	part := HashPartitioner{N: 3}
	servers := make([]*Server, 3)
	for i := range servers {
		servers[i] = NewServer(g, part, i)
	}
	tr := obs.NewTracer()
	client, err := NewClientContext(bg, DirectTransport{Servers: servers}, part, 0, WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	ctx, id := obs.EnsureTrace(bg)
	if _, err := sampler.KHop(ctx, client, sampler.Config{Fanouts: []int{4, 3}, FetchAttrs: true}, chaosRoots(g, 0, 32)); err != nil {
		t.Fatal(err)
	}
	// Every RPC in the batch lands on the trace its caller brought.
	hops := map[string]int{}
	for _, sp := range tr.TraceSpans(id) {
		hops[sp.Hop]++
	}
	for _, hop := range []string{obs.HopRPC, obs.HopWire, obs.HopServer} {
		if hops[hop] < 2 {
			t.Fatalf("hop %q recorded %d times under the batch's trace; have %v", hop, hops[hop], hops)
		}
	}
	// The servers saw the requests and timed them.
	var served int64
	for _, s := range servers {
		served += s.Latency().Count()
	}
	if served == 0 {
		t.Fatal("server-side latency unrecorded")
	}
}

// TestTracedSampleTCP runs the same traced batch over real sockets.
func TestTracedSampleTCP(t *testing.T) {
	g := testGraph(t)
	part := HashPartitioner{N: 2}
	addrs := make([]string, 2)
	var tcpServers []*TCPServer
	for i := 0; i < 2; i++ {
		ts, err := ServeTCP(NewServer(g, part, i), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ts.Close()
		tcpServers = append(tcpServers, ts)
		addrs[i] = ts.Addr()
	}
	transport := DialTCP(addrs, 2)
	defer transport.Close()
	tr := obs.NewTracer()
	client, err := NewClientContext(bg, transport, part, -1, WithTracer(tr), WithAPIKey("tenant-key"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sampler.KHop(bg, client, sampler.Config{Fanouts: []int{3}, FetchAttrs: true}, chaosRoots(g, 0, 16)); err != nil {
		t.Fatal(err)
	}
	for _, hop := range []string{obs.HopRPC, obs.HopWire, obs.HopServer} {
		if tr.Hop(hop).Count == 0 {
			t.Fatalf("hop %q unrecorded over TCP; have %v", hop, tr.Hops())
		}
	}
	snap := tcpServers[0].StatsSnapshot()
	if snap.Layer != "cluster.tcp" {
		t.Fatalf("tcp stats layer = %q", snap.Layer)
	}
	if v, ok := snap.Get("frames"); !ok || v == 0 {
		t.Fatal("tcp server counted no frames")
	}
}

// failNTransport fails the next n calls, then passes through.
type failNTransport struct {
	inner Transport

	mu sync.Mutex
	n  int
}

func (t *failNTransport) fail(n int) {
	t.mu.Lock()
	t.n = n
	t.mu.Unlock()
}

func (t *failNTransport) Call(ctx context.Context, server int, msg []byte) ([]byte, error) {
	t.mu.Lock()
	if t.n > 0 {
		t.n--
		t.mu.Unlock()
		return nil, fmt.Errorf("cluster: transient fault")
	}
	t.mu.Unlock()
	return t.inner.Call(ctx, server, msg)
}

// TestTracerEventsOnRetry checks that resilience events reach the tracer.
func TestTracerEventsOnRetry(t *testing.T) {
	g := testGraph(t)
	part := HashPartitioner{N: 1}
	srv := NewServer(g, part, 0)
	flaky := &failNTransport{inner: DirectTransport{Servers: []*Server{srv}}}
	tr := obs.NewTracer()
	client, err := NewClientContext(bg, flaky, part, 0,
		WithTracer(tr),
		WithResilience(ResilienceConfig{Retry: RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond}}),
	)
	if err != nil {
		t.Fatal(err)
	}
	flaky.fail(1)
	if _, err := getNeighbors(client, chaosRoots(g, 0, 4)); err != nil {
		t.Fatal(err)
	}
	snap := tr.StatsSnapshot()
	if v, ok := snap.Get("event_retry"); !ok || v == 0 {
		t.Fatalf("retry events unrecorded: %+v", snap.Metrics)
	}
}
