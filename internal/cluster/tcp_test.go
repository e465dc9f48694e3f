package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/mem"
	"lsdgnn/internal/sampler"
)

func startTCPCluster(t *testing.T, g *graph.Graph, n int) (*TCPTransport, func()) {
	t.Helper()
	part := HashPartitioner{N: n}
	addrs := make([]string, n)
	var servers []*TCPServer
	for p := 0; p < n; p++ {
		srv, err := ServeTCP(NewServer(g, part, p), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[p] = srv.Addr()
		servers = append(servers, srv)
	}
	tr := DialTCP(addrs, 2)
	return tr, func() {
		tr.Close()
		for _, s := range servers {
			_ = s.Close()
		}
	}
}

func TestTCPEndToEnd(t *testing.T) {
	g := testGraph(t)
	tr, cleanup := startTCPCluster(t, g, 3)
	defer cleanup()
	client, err := NewClient(tr, HashPartitioner{N: 3}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if client.NumNodes() != g.NumNodes() || client.AttrLen() != g.AttrLen() {
		t.Fatal("meta over TCP wrong")
	}
	ids := []graph.NodeID{0, 50, 500}
	lists, err := getNeighbors(client, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range ids {
		if len(lists[i]) != g.Degree(v) {
			t.Fatalf("node %d: %d neighbors over TCP, want %d", v, len(lists[i]), g.Degree(v))
		}
	}
	attrs, err := getAttrs(client, ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(attrs) != len(ids)*g.AttrLen() {
		t.Fatalf("attrs length %d", len(attrs))
	}
}

func TestTCPSampling(t *testing.T) {
	g := testGraph(t)
	tr, cleanup := startTCPCluster(t, g, 2)
	defer cleanup()
	client, err := NewClient(tr, HashPartitioner{N: 2}, -1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sampler.Config{Fanouts: []int{3, 3}, NegativeRate: 1, Method: sampler.Streaming, FetchAttrs: true, Seed: 2}
	res, err := sampler.KHop(bg, client, cfg, []graph.NodeID{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hops[1]) != 4*9 {
		t.Fatalf("hop-2 size %d", len(res.Hops[1]))
	}
}

func TestTCPServerErrorPropagation(t *testing.T) {
	g := testGraph(t)
	tr, cleanup := startTCPCluster(t, g, 2)
	defer cleanup()
	// An unknown op, or a frame from another protocol version, must come
	// back as a remote error, not a hang — and typed as the application
	// rejection it is, so the resilience layer does not burn retries or
	// breaker budget replaying it.
	st := &ResilienceStats{}
	r := layoutResilience(t, ResilienceConfig{
		Retry:   RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond},
		Breaker: BreakerConfig{Threshold: 1, OpenFor: time.Minute},
	}, st, nil)
	for frame, want := range map[string]string{
		string(bare(0x7F)): "unknown op",
		string(otherVersion(metaReq, ProtoVersion-1)): fmt.Sprintf("speaks protocol v%d, this build speaks v%d", ProtoVersion-1, ProtoVersion),
	} {
		_, err := r.call(bg, r.cfg.Retry.MaxAttempts, 0, []byte(frame), tr.Call)
		var se *ServerError
		if !errors.As(err, &se) {
			t.Fatalf("rejection of %x lost its type over the wire: %v", frame, err)
		}
		if se.Server != 0 || !strings.Contains(se.Msg, want) {
			t.Fatalf("rejection of %x does not say %q: %+v", frame, want, se)
		}
		// The server stays up and the connection stays usable.
		if _, err := tr.Call(bg, 0, metaReq); err != nil {
			t.Fatalf("connection unusable after rejecting %x: %v", frame, err)
		}
	}
	if snap := st.Snapshot(); snap.Retries != 0 || snap.BreakerOpens != 0 {
		t.Fatalf("rejections cost %d retries, %d breaker opens", snap.Retries, snap.BreakerOpens)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	g := testGraph(t)
	tr, cleanup := startTCPCluster(t, g, 2)
	defer cleanup()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = tr.Call(bg, i%2, metaReq)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestTCPBadServerIndex(t *testing.T) {
	tr := DialTCP([]string{"127.0.0.1:1"}, 1)
	defer tr.Close()
	if _, err := tr.Call(bg, 5, metaReq); err == nil {
		t.Fatal("out-of-range server accepted")
	}
}

func TestTCPServerClose(t *testing.T) {
	g := testGraph(t)
	srv, err := ServeTCP(NewServer(g, HashPartitioner{N: 1}, 0), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	tr := DialTCP([]string{addr}, 1)
	defer tr.Close()
	if _, err := tr.Call(bg, 0, metaReq); err == nil {
		t.Fatal("closed server still answering")
	}
}

// TestTCPPoolRecovery: kill a TCPServer and restart it on the same
// address — the transport's pooled connections are now dead sockets, and
// Call must detect the stale conn and redial instead of failing.
func TestTCPPoolRecovery(t *testing.T) {
	g := testGraph(t)
	part := HashPartitioner{N: 1}
	srv, err := ServeTCP(NewServer(g, part, 0), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	tr := DialTCP([]string{addr}, 2)
	defer tr.Close()

	// Populate the pool: two concurrent calls force two pooled conns.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := tr.Call(bg, 0, metaReq); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Restart on the same address; the port may linger briefly in
	// TIME_WAIT-adjacent states, so retry the bind.
	var srv2 *TCPServer
	for i := 0; ; i++ {
		srv2, err = ServeTCP(NewServer(g, part, 0), addr)
		if err == nil {
			break
		}
		if i >= 100 {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer srv2.Close()

	// Every pooled connection is now a corpse. Each call must notice the
	// dead socket and transparently redial the restarted server.
	for i := 0; i < 4; i++ {
		raw, err := tr.Call(bg, 0, metaReq)
		if err != nil {
			t.Fatalf("call %d after restart: %v", i, err)
		}
		meta, err := DecodeMetaResponse(raw)
		if err != nil {
			t.Fatal(err)
		}
		if meta.NumNodes != g.NumNodes() {
			t.Fatal("restarted server served wrong meta")
		}
	}
}

// gateHandler parks every request until released, so drains can be
// exercised with a frame genuinely mid-flight.
type gateHandler struct {
	inner   Handler
	gate    chan struct{}
	entered chan struct{}
	once    sync.Once
}

func (h *gateHandler) Handle(ctx context.Context, msg []byte) ([]byte, error) {
	h.once.Do(func() { close(h.entered) })
	select {
	case <-h.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return h.inner.Handle(ctx, msg)
}

// TestInterruptedConnNeverPooled: a connection whose cancellation hook ran
// mid-frame is closed, never pooled, and the next call dials afresh; a
// connection whose frame completed goes back to the pool with its hook
// disarmed, so cancelling that frame's context afterwards leaves it
// serving the next call.
func TestInterruptedConnNeverPooled(t *testing.T) {
	gate := &gateHandler{inner: NewServer(testGraph(t), HashPartitioner{N: 1}, 0), gate: make(chan struct{}), entered: make(chan struct{})}
	srv, err := ServeTCP(gate, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := DialTCP([]string{srv.Addr()}, 1)
	defer tr.Close()
	ctx, cancel := context.WithCancel(bg)
	go func() {
		<-gate.entered
		cancel()
	}()
	if _, err := tr.Call(ctx, 0, metaReq); !errors.Is(err, context.Canceled) {
		t.Fatalf("call canceled mid-frame: %v", err)
	}
	if n := len(tr.pools[0]); n != 0 {
		t.Fatalf("%d interrupted connections pooled", n)
	}
	close(gate.gate)
	call := func(ctx context.Context) {
		resp, err := tr.Call(ctx, 0, metaReq)
		if err != nil {
			t.Fatal(err)
		}
		mem.Bytes.Recycle(resp)
	}
	ctx, cancel = context.WithCancel(bg)
	call(ctx)
	cancel()
	call(bg)
	if n := len(tr.pools[0]); n != 1 {
		t.Fatalf("%d connections pooled after two clean calls, want 1", n)
	}
	if n := srv.accepted.Value(); n != 2 {
		t.Fatalf("server accepted %d connections, want 2: the interrupted one and one reused after its frame's context ended", n)
	}
}

// TestTCPServerDrainCompletesInflight is the drain-ordering regression
// test: SetDraining must reject brand-new connections at once — the same
// instant /readyz goes 503 in lsdgnn-server — while a frame already being
// handled completes normally on its existing connection.
func TestTCPServerDrainCompletesInflight(t *testing.T) {
	g := testGraph(t)
	gh := &gateHandler{
		inner:   NewServer(g, HashPartitioner{N: 1}, 0),
		gate:    make(chan struct{}),
		entered: make(chan struct{}),
	}
	srv, err := ServeTCP(gh, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := DialTCP([]string{srv.Addr()}, 2)
	defer tr.Close()

	// Park one frame inside the handler.
	type reply struct {
		raw []byte
		err error
	}
	done := make(chan reply, 1)
	go func() {
		raw, err := tr.Call(bg, 0, metaReq)
		done <- reply{raw, err}
	}()
	<-gh.entered

	srv.SetDraining(true)
	var gauge float64 = -1
	for _, m := range srv.StatsSnapshot().Metrics {
		if m.Name == "draining" {
			gauge = m.Value
		}
	}
	if gauge != 1 {
		t.Fatalf("draining gauge = %v, want 1", gauge)
	}

	// A brand-new connection is turned away immediately: accepted, then
	// closed before any frame is served.
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Read(make([]byte, 1)); err == nil {
		t.Fatal("draining server kept a new connection open")
	}

	// The parked frame still completes on its existing connection.
	close(gh.gate)
	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight frame failed during drain: %v", r.err)
	}
	meta, err := DecodeMetaResponse(r.raw)
	if err != nil {
		t.Fatal(err)
	}
	if meta.NumNodes != g.NumNodes() {
		t.Fatal("in-flight frame answered with wrong meta")
	}

	// With the drain complete, even pooled redials are refused.
	if _, err := tr.Call(bg, 0, metaReq); err == nil {
		t.Fatal("draining server accepted a post-drain request")
	}
}

// ownedOut is the count of owned pool buffers handed out and not yet
// recycled.
func ownedOut() float64 {
	s := mem.Snapshot()
	h, _ := s.Get("owned_handoffs")
	r, _ := s.Get("owned_recycled")
	return h - r
}

// FuzzReadFrame feeds the pooled frame reader hostile bytes: any length
// prefix, a reply without its status byte, a body cut short. It must never
// panic, must fail every frame its bytes cannot fill, must allocate no
// more than readChunk ahead of the bytes that arrived, and must hand back
// every buffer it took: to the caller on success, to the pool on failure.
// One header scratch serves every input, as one connection's serves its
// successive frames, so no frame may read state a previous one left.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, statusOK, 'o', 'k'}, true)
	f.Add([]byte{0, 0, 0, 0}, true)                                // no status byte
	f.Add([]byte{0xff, 0xff, 0xff, 0x0f, statusOK, 1, 2, 3}, true) // at the limit, cut short
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, false)                   // past the limit
	f.Add([]byte{2, 0, 0, 0, OpMeta, ProtoVersion}, false)
	// TotalAlloc is process-wide: under -fuzz the engine's worker allocates
	// beside the read, a few KiB at a time, so only fuzzing gets more slack.
	slack := 4 << 10
	if flag.Lookup("test.fuzz").Value.String() != "" {
		slack = 64 << 10
	}
	var hdr frameHdr
	f.Fuzz(func(t *testing.T, data []byte, reply bool) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		allocBefore, ownedBefore := ms.TotalAlloc, ownedOut()
		body, status, err := hdr.read(bytes.NewReader(data), reply)
		runtime.ReadMemStats(&ms)
		if most := uint64(readChunk + 4*len(data) + slack); ms.TotalAlloc-allocBefore > most {
			t.Fatalf("read of %d bytes allocated %d, want at most %d", len(data), ms.TotalAlloc-allocBefore, most)
		}
		if err == nil {
			head := 4
			if reply {
				head = 5
			}
			n := int(binary.LittleEndian.Uint32(data))
			if len(body)+head-4 != n || !bytes.Equal(body, data[head:head+len(body)]) || reply && status != data[4] {
				t.Fatalf("prefix %d read back as %d body bytes, status %d", n, len(body), status)
			}
			mem.Bytes.Recycle(body)
		} else if body != nil {
			t.Fatal("failed read returned a body")
		}
		if d := ownedOut() - ownedBefore; d != 0 {
			t.Fatalf("read left %v pool buffers unreturned", d)
		}
	})
}

// TestReadFrameGrowsAsBytesArrive: a body longer than readChunk reads back
// whole, a prefix claiming far more than arrives fails after allocating
// about what did arrive, not what was claimed, and a zero-length reply on
// a live socket fails at once instead of waiting for a status byte.
func TestReadFrameGrowsAsBytesArrive(t *testing.T) {
	peer, conn := net.Pipe()
	defer peer.Close()
	defer conn.Close()
	go peer.Write([]byte{0, 0, 0, 0})
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var hdr frameHdr
	if _, _, err := hdr.read(conn, true); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("zero-length reply: %v, want a prompt rejection", err)
	}

	body := make([]byte, 3*readChunk+5)
	for i := range body {
		body[i] = byte(i * 7)
	}
	var frame bytes.Buffer
	if err := hdr.write(&frame, statusReject, body); err != nil {
		t.Fatal(err)
	}
	got, status, err := hdr.read(&frame, true)
	if err != nil || status != statusReject || !bytes.Equal(got, body) {
		t.Fatalf("%d-byte body read back as %d bytes, status %d, %v", len(body), len(got), status, err)
	}
	mem.Bytes.Recycle(got)

	hostile := binary.LittleEndian.AppendUint32(nil, maxFrameBytes)
	hostile = append(hostile, body...)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	if _, _, err := hdr.read(bytes.NewReader(hostile), false); err == nil {
		t.Fatal("frame cut short read back whole")
	}
	runtime.ReadMemStats(&ms)
	if got := ms.TotalAlloc - before; got > 4*uint64(len(body)) {
		t.Fatalf("a %d-byte frame claiming %d allocated %d bytes", len(body), maxFrameBytes, got)
	}
}

// TestRequestFrameLeavesInOneWrite: the client hands a request frame to
// its socket in one Write, so the server's first Read gets the whole frame
// — never a bare length prefix — and a reply still comes back through the
// same round trip.
func TestRequestFrameLeavesInOneWrite(t *testing.T) {
	peer, conn := net.Pipe()
	defer peer.Close()
	tr := DialTCP([]string{"unused"}, 1)
	defer tr.Close()
	msg, err := EncodePackedRequest([]PackedSubRequest{{Op: OpGetNeighbors, Neighbors: NeighborsRequest{IDs: []graph.NodeID{4, 9, 1 << 33}}}}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		resp []byte
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, _, err := tr.attempt(context.Background(), 0, newTCPConn(conn), msg)
		done <- result{resp, err}
	}()
	_ = peer.SetDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 4+len(msg)+64)
	n, err := peer.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if want := binary.LittleEndian.AppendUint32(nil, uint32(len(msg))); n != 4+len(msg) || !bytes.Equal(buf[:4], want) || !bytes.Equal(buf[4:n], msg) {
		t.Fatalf("first read got %d bytes %x, want the %d-byte frame", n, buf[:n], 4+len(msg))
	}
	if err := new(frameHdr).write(peer, statusOK, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil || string(r.resp) != "ok" {
		t.Fatalf("round trip: %q, %v", r.resp, r.err)
	}
	mem.Bytes.Recycle(r.resp)
}
