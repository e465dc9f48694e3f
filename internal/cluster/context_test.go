package cluster

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/sampler"
)

// bg is the context used by tests that don't exercise cancellation.
var bg = context.Background()

func testSamplingConfig() sampler.Config {
	return sampler.Config{Fanouts: []int{4, 4}, NegativeRate: 2, Method: sampler.Streaming, FetchAttrs: true, Seed: 5}
}

func TestSampleBatchDeadlineOverDelayedTransport(t *testing.T) {
	g := testGraph(t)
	part := HashPartitioner{N: 2}
	servers := []*Server{NewServer(g, part, 0), NewServer(g, part, 1)}
	tr := DelayedTransport{Inner: DirectTransport{Servers: servers}, Delay: 200 * time.Millisecond}
	client, err := NewClient(tr, part, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err = client.SampleBatch(ctx, []graph.NodeID{1, 2, 3}, testSamplingConfig())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	snap := client.Batches.StatsSnapshot()
	if v, _ := snap.Get("batch_errors"); v != 1 {
		t.Fatalf("batch_errors = %v", v)
	}
}

func TestSampleBatchCancelMidFlight(t *testing.T) {
	g := testGraph(t)
	part := HashPartitioner{N: 2}
	servers := []*Server{NewServer(g, part, 0), NewServer(g, part, 1)}
	tr := DelayedTransport{Inner: DirectTransport{Servers: servers}, Delay: time.Second}
	client, err := NewClient(tr, part, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = client.SampleBatch(ctx, []graph.NodeID{1, 2}, testSamplingConfig())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("cancellation took %v, delay not interrupted", elapsed)
	}
}

// hungServer accepts TCP connections and reads frames but never replies —
// the pathological slow peer a deadline must defend against.
func hungServer(t *testing.T) (addr string, cleanup func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			go func(c net.Conn) {
				buf := make([]byte, 4096)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
				}
			}(c)
		}
	}()
	return ln.Addr().String(), func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
	}
}

func TestTCPCallDeadlineAbortsInFlight(t *testing.T) {
	addr, cleanup := hungServer(t)
	defer cleanup()
	tr := DialTCP([]string{addr}, 1)
	defer tr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := tr.Call(ctx, 0, metaReq)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("in-flight call not aborted for %v", elapsed)
	}
}

func TestTCPCallCancelAbortsInFlight(t *testing.T) {
	addr, cleanup := hungServer(t)
	defer cleanup()
	tr := DialTCP([]string{addr}, 1)
	defer tr.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := tr.Call(ctx, 0, metaReq)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
}

// TestTCPSampleBatchDeadline verifies the full path of the acceptance
// criterion: an expired context aborts an in-flight SampleBatch whose
// fan-out crosses a real TCP socket to a peer that never answers.
func TestTCPSampleBatchDeadline(t *testing.T) {
	g := testGraph(t)
	part := HashPartitioner{N: 2}
	// Partition 0 is a live TCP server (it must answer the bootstrap meta
	// fetch); partition 1 hangs forever.
	live, err := ServeTCP(NewServer(g, part, 0), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	hungAddr, cleanup := hungServer(t)
	defer cleanup()
	tr := DialTCP([]string{live.Addr(), hungAddr}, 1)
	defer tr.Close()
	client, err := NewClient(tr, part, -1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = client.SampleBatch(ctx, []graph.NodeID{1, 2, 3, 4, 5, 6, 7, 8}, testSamplingConfig())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("batch hung for %v despite deadline", elapsed)
	}
}

func TestConcurrentSampleBatchSharedClient(t *testing.T) {
	g := testGraph(t)
	_, client := buildCluster(t, g, 4)
	cfg := testSamplingConfig()
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			roots := []graph.NodeID{graph.NodeID(i), graph.NodeID(i + 10), graph.NodeID(i + 100)}
			for n := 0; n < 5; n++ {
				if _, err := client.SampleBatch(bg, roots, cfg); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if client.Batches.Count() != workers*5 {
		t.Fatalf("batch latency count = %d, want %d", client.Batches.Count(), workers*5)
	}
}

func TestServerRejectsOutOfRangeNode(t *testing.T) {
	g := testGraph(t)
	part := HashPartitioner{N: 2}
	srv := NewServer(g, part, 0)
	// A hostile frame can carry any 64-bit ID; find one far outside the
	// graph that still routes to this partition, so only the bounds check
	// stands between the request and an index panic.
	huge := graph.NodeID(1 << 40)
	for part.Owner(huge) != 0 {
		huge++
	}
	if _, err := srv.GetNeighbors(bg, NeighborsRequest{IDs: []graph.NodeID{huge}}); err == nil {
		t.Fatal("out-of-range neighbor request accepted")
	}
	if _, err := srv.GetAttrs(bg, AttrsRequest{IDs: []graph.NodeID{huge}}); err == nil {
		t.Fatal("out-of-range attrs request accepted")
	}
	// Through the wire path too: the server must answer with an error
	// frame, not crash.
	raw := EncodeNeighborsRequest(Header{}, NeighborsRequest{IDs: []graph.NodeID{huge}})
	if _, err := srv.Handle(bg, raw); err == nil {
		t.Fatal("out-of-range frame accepted by Handle")
	}
	// IDs at or above 2^63 turn negative when cast to int64; they must be
	// rejected by the unsigned bounds check, not slip through.
	wrap := graph.NodeID(1 << 63)
	for part.Owner(wrap) != 0 {
		wrap++
	}
	if _, err := srv.GetAttrs(bg, AttrsRequest{IDs: []graph.NodeID{wrap}}); err == nil {
		t.Fatal("int64-wrapping node ID accepted")
	}
}

func TestHandleRecoversPanics(t *testing.T) {
	g := testGraph(t)
	srv := NewServer(g, HashPartitioner{N: 1}, 0)
	// Simulate a residual handler panic via a corrupted-decode path: no
	// current decoder panics, so drive Handle with deliberately hostile
	// frames and assert errors come back for all of them.
	hostile := [][]byte{
		bare(OpGetNeighbors),
		bare(OpGetNeighbors, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF),
		bare(OpGetAttrs, 0xFF, 0xFF, 0xFF, 0x7F),
		bare(0x42, 0x00),
	}
	for i, msg := range hostile {
		if _, err := srv.Handle(bg, msg); err == nil {
			t.Fatalf("hostile frame %d accepted", i)
		}
	}
}

func TestTCPServerGracefulShutdown(t *testing.T) {
	g := testGraph(t)
	part := HashPartitioner{N: 1}
	srv, err := ServeTCP(NewServer(g, part, 0), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr := DialTCP([]string{srv.Addr()}, 1)
	defer tr.Close()
	// Prime a connection so shutdown has something to drain.
	if _, err := tr.Call(bg, 0, metaReq); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	// New calls fail: the listener is gone.
	if _, err := tr.Call(bg, 0, metaReq); err == nil {
		t.Fatal("server still answering after shutdown")
	}
	// Shutdown is idempotent.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

func TestDelayedTransportPassesThrough(t *testing.T) {
	g := testGraph(t)
	part := HashPartitioner{N: 1}
	tr := DelayedTransport{Inner: DirectTransport{Servers: []*Server{NewServer(g, part, 0)}}, Delay: time.Millisecond}
	client, err := NewClient(tr, part, 0)
	if err != nil {
		t.Fatal(err)
	}
	lists, err := getNeighbors(client, []graph.NodeID{3})
	if err != nil {
		t.Fatal(err)
	}
	if len(lists[0]) != g.Degree(3) {
		t.Fatal("delayed transport corrupted data")
	}
}
