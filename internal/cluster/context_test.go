package cluster

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
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
	_, err = sampler.KHop(ctx, client, testSamplingConfig(), []graph.NodeID{1, 2, 3})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
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
	_, err = sampler.KHop(ctx, client, testSamplingConfig(), []graph.NodeID{1, 2})
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
// criterion: an expired context aborts an in-flight batch whose
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
	_, err = sampler.KHop(ctx, client, testSamplingConfig(), []graph.NodeID{1, 2, 3, 4, 5, 6, 7, 8})
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
				if _, err := sampler.KHop(bg, client, cfg, roots); err != nil {
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
}

// parkingTransport parks every data frame until release is closed or the
// call's own ctx ends, counting the calls parked so far and the ones that
// ended by ctx.
type parkingTransport struct {
	Transport
	parked, aborted atomic.Int64
	release         chan struct{}
}

func (t *parkingTransport) Call(ctx context.Context, server int, msg []byte) ([]byte, error) {
	if msg[0] == OpPacked {
		t.parked.Add(1)
		select {
		case <-t.release:
		case <-ctx.Done():
			t.aborted.Add(1)
			return nil, ctx.Err()
		}
	}
	return t.Transport.Call(ctx, server, msg)
}

// TestAttrsBatchCancelAbortsOwnFrame: a fetch travels under its caller's
// ctx, so cancelling one caller mid-AttrsBatch ends that caller's transport
// call — no frame outlives the call that asked for it — and leaves a
// concurrent caller's overlapping fetch to the same shard untouched.
func TestAttrsBatchCancelAbortsOwnFrame(t *testing.T) {
	g := testGraph(t)
	part := HashPartitioner{N: 1}
	pt := &parkingTransport{
		Transport: DirectTransport{Servers: []*Server{NewServer(g, part, 0)}},
		release:   make(chan struct{}),
	}
	client, err := NewClient(pt, part, -1)
	if err != nil {
		t.Fatal(err)
	}
	ids := chaosRoots(g, 0, 40)
	mine, theirs := ids[:24], ids[16:]
	al := g.AttrLen()
	_, attrs1 := dirtyBuffers(len(mine), al)
	_, attrs2 := dirtyBuffers(len(theirs), al)
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	canceled, other := make(chan error, 1), make(chan error, 1)
	go func() { canceled <- client.AttrsBatch(ctx, attrs1, mine) }()
	go func() { other <- client.AttrsBatch(bg, attrs2, theirs) }()
	waitFor(t, "both frames to be on the wire", func() bool { return pt.parked.Load() == 2 })

	cancel()
	if err := <-canceled; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled caller returned %v", err)
	}
	if n := pt.aborted.Load(); n != 1 {
		t.Fatalf("%d transport calls ended with the canceled caller, want 1 (its own)", n)
	}
	checkAgainstGraph(t, g, mine, nil, attrs1, func(graph.NodeID) bool { return true })

	close(pt.release)
	if err := <-other; err != nil {
		t.Fatalf("concurrent caller failed: %v", err)
	}
	checkAgainstGraph(t, g, theirs, nil, attrs2, func(graph.NodeID) bool { return false })
	if n := pt.aborted.Load(); n != 1 {
		t.Fatalf("%d transport calls aborted in all, want 1", n)
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
	// The server must answer the sub with a typed rejection, not crash.
	if handleSub(t, srv, OpGetNeighbors, []graph.NodeID{huge}) == nil {
		t.Fatal("out-of-range neighbor request accepted")
	}
	if handleSub(t, srv, OpGetAttrs, []graph.NodeID{huge}) == nil {
		t.Fatal("out-of-range attrs request accepted")
	}
	// IDs at or above 2^63 turn negative when cast to int64; they must be
	// rejected by the unsigned bounds check, not slip through.
	wrap := graph.NodeID(1 << 63)
	for part.Owner(wrap) != 0 {
		wrap++
	}
	if handleSub(t, srv, OpGetAttrs, []graph.NodeID{0, wrap}) == nil {
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
		bare(OpPacked),
		bare(OpPacked, 0xFF, 0xFF),
		bare(OpPacked, 1, 0, 0xFF, 0xFF, 0xFF, 0x7F),
		bare(OpPacked, 1, 0, 5, 0, 0, 0, OpGetAttrs, 0xFF, 0xFF, 0xFF, 0xFF),
		bare(OpGetNeighbors, 1, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0),
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
