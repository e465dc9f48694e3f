package cluster

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/mem"
	"lsdgnn/internal/sampler"
)

// chaosSampling is the workload every chaos test drives; the fixed Seed
// makes the client-side sampling rng — and therefore the full Result —
// deterministic, so runs under injected faults must be byte-identical to
// fault-free reference runs.
var chaosSampling = sampler.Config{
	Fanouts: []int{5, 5}, NegativeRate: 4,
	Method: sampler.Streaming, FetchAttrs: true, Seed: 99,
}

// chaosRoots derives a deterministic root batch without touching the
// global rng.
func chaosRoots(g *graph.Graph, batch, size int) []graph.NodeID {
	roots := make([]graph.NodeID, size)
	for i := range roots {
		roots[i] = graph.NodeID(int64(batch*7919+i*131) % g.NumNodes())
	}
	return roots
}

// buildChaosCluster assembles partitions×replicas servers behind a seeded
// FaultyTransport (no faults set yet — the bootstrap meta fetch runs
// clean) and a resilient client routing by UniformLayout: endpoint
// r*partitions+p serves partition p.
func buildChaosCluster(t *testing.T, g *graph.Graph, partitions, replicas int, cfg ResilienceConfig) (*FaultyTransport, *Client) {
	t.Helper()
	part := HashPartitioner{N: partitions}
	servers := make([]*Server, 0, partitions*replicas)
	for r := 0; r < replicas; r++ {
		for p := 0; p < partitions; p++ {
			servers = append(servers, NewServer(g, part, p))
		}
	}
	ft := NewFaultyTransport(DirectTransport{Servers: servers}, 42)
	client, err := NewClientContext(bg, ft, part, 0, WithResilience(cfg), WithLayout(UniformLayout(partitions, replicas)))
	if err != nil {
		t.Fatal(err)
	}
	return ft, client
}

// referenceResults samples every batch on a pristine cluster, giving the
// ground truth chaos runs must reproduce exactly.
func referenceResults(t *testing.T, g *graph.Graph, partitions, batches, batchSize int) []*sampler.Result {
	t.Helper()
	_, client := buildCluster(t, g, partitions)
	out := make([]*sampler.Result, batches)
	for b := range out {
		res, err := sampler.KHop(bg, client, chaosSampling, chaosRoots(g, b, batchSize))
		if err != nil {
			t.Fatal(err)
		}
		out[b] = res
	}
	return out
}

// TestChaosSampleBatchUnderFaults is the headline acceptance test: with a
// 20% injected per-call failure rate and one replica per partition,
// concurrent batches sampled over the client must all succeed and return
// exactly the results a fault-free cluster produces — retries and replica
// failover absorb every injected fault.
func TestChaosSampleBatchUnderFaults(t *testing.T) {
	g := testGraph(t)
	const partitions, replicas, batches, batchSize, workers = 4, 2, 12, 24, 4
	want := referenceResults(t, g, partitions, batches, batchSize)

	ft, client := buildChaosCluster(t, g, partitions, replicas, ResilienceConfig{
		// 5 passes over primary+replica make an unabsorbed batch failure
		// astronomically unlikely at a 20% per-call rate.
		Retry:   RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond, Jitter: 0.5},
		Breaker: BreakerConfig{Threshold: 10, OpenFor: 10 * time.Millisecond},
		Seed:    7,
	})
	ft.SetFaults(FaultSpec{ErrRate: 0.2})

	got := make([]*sampler.Result, batches)
	errc := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := w; b < batches; b += workers {
				res, err := sampler.KHop(bg, client, chaosSampling, chaosRoots(g, b, batchSize))
				if err != nil {
					errc <- err
					return
				}
				got[b] = res
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("batch failed despite retries+replicas: %v", err)
	}
	for b := range got {
		if !reflect.DeepEqual(got[b], want[b]) {
			t.Fatalf("batch %d diverged from fault-free reference", b)
		}
	}
	calls, injected := ft.Counts()
	if injected == 0 {
		t.Fatalf("no faults injected across %d calls — chaos harness inert", calls)
	}
	rs := client.Res.Snapshot()
	if rs.Retries+rs.Failovers == 0 {
		t.Fatalf("faults injected (%d) but no retries or failovers recorded: %+v", injected, rs)
	}
}

// TestChaosPartialResultsDeadShard: with PartialResults enabled and an
// unreplicated shard permanently down, batches must come back with full
// layout, the lost shard annotated, its attribute positions zeroed, the
// breaker open, and rejects accumulating once it is.
func TestChaosPartialResultsDeadShard(t *testing.T) {
	g := testGraph(t)
	const partitions, dead, batches, batchSize = 4, 2, 6, 16
	ft, client := buildChaosCluster(t, g, partitions, 1, ResilienceConfig{
		Retry:          RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond},
		Breaker:        BreakerConfig{Threshold: 3, OpenFor: time.Minute},
		PartialResults: true,
		Seed:           7,
	})
	ft.KillServer(dead)

	part := HashPartitioner{N: partitions}
	for b := 0; b < batches; b++ {
		roots := chaosRoots(g, b, batchSize)
		res, err := sampler.KHop(bg, client, chaosSampling, roots)
		if err == nil {
			t.Fatal("dead shard produced no error annotation")
		}
		if _, ok := sampler.AsPartial(err); !ok {
			t.Fatalf("want a degraded batch, got %v", err)
		}
		pe, ok := AsPartial(err)
		if !ok {
			t.Fatalf("want *PartialError, got %v", err)
		}
		if len(pe.Shards) != 1 || pe.Shards[0].Server != dead {
			t.Fatalf("wrong shard annotation: %v", pe)
		}
		if b == 0 && !errors.Is(err, ErrServerDown) {
			// Later batches are shed by the open breaker instead of
			// re-dialing the corpse, so only the first one must carry the
			// root cause.
			t.Fatalf("shard error lost its cause: %v", err)
		}
		if res == nil {
			t.Fatal("partial batch dropped its result")
		}
		// Layout must be intact: every hop padded to the full fanout and
		// attributes present for every sampled id.
		n := len(roots)
		for h, fanout := range chaosSampling.Fanouts {
			n *= fanout
			if len(res.Hops[h]) != n {
				t.Fatalf("hop %d layout broken: %d nodes, want %d", h, len(res.Hops[h]), n)
			}
		}
		ids := len(roots) + len(res.Negatives)
		for _, h := range res.Hops {
			ids += len(h)
		}
		if len(res.Attrs) != ids*g.AttrLen() {
			t.Fatalf("attrs layout broken: %d floats, want %d", len(res.Attrs), ids*g.AttrLen())
		}
		// Positions owned by the dead shard are zero-filled; live ones are
		// the real attributes.
		for i, v := range roots {
			attr := res.Attrs[i*g.AttrLen() : (i+1)*g.AttrLen()]
			if part.Owner(v) == dead {
				for _, x := range attr {
					if x != 0 {
						t.Fatalf("dead-shard node %d has non-zero attr", v)
					}
				}
			} else if !reflect.DeepEqual(attr, g.Attr(nil, v)) {
				t.Fatalf("live node %d attrs corrupted", v)
			}
		}
	}

	rs := client.Res.Snapshot()
	if rs.BreakerOpens < 1 {
		t.Fatalf("breaker never opened on a permanently dead shard: %+v", rs)
	}
	if rs.BreakerRejects < 1 {
		t.Fatalf("open breaker shed no load: %+v", rs)
	}
	if rs.ShardErrors < int64(batches) || rs.Retries < 1 {
		t.Fatalf("counter plumbing broken: %+v", rs)
	}
}

// TestChaosFailoverDeadPrimary: a dead primary with a live replica must be
// invisible to callers — identical results, failovers counted, and the
// primary's breaker opened so later calls skip it outright.
func TestChaosFailoverDeadPrimary(t *testing.T) {
	g := testGraph(t)
	const partitions, replicas, batches, batchSize = 2, 2, 4, 16
	want := referenceResults(t, g, partitions, batches, batchSize)

	ft, client := buildChaosCluster(t, g, partitions, replicas, ResilienceConfig{
		Retry:   RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond},
		Breaker: BreakerConfig{Threshold: 3, OpenFor: time.Minute},
		Seed:    7,
	})
	ft.KillServer(1) // partition 1's primary; endpoint 3 is its replica

	for b := 0; b < batches; b++ {
		res, err := sampler.KHop(bg, client, chaosSampling, chaosRoots(g, b, batchSize))
		if err != nil {
			t.Fatalf("batch %d failed with a live replica: %v", b, err)
		}
		if !reflect.DeepEqual(res, want[b]) {
			t.Fatalf("batch %d diverged after failover", b)
		}
	}
	rs := client.Res.Snapshot()
	if rs.Failovers == 0 {
		t.Fatalf("dead primary produced no failovers: %+v", rs)
	}
	if rs.BreakerOpens == 0 || client.res.BreakerState(1) != BreakerOpen {
		t.Fatalf("dead primary's breaker not open: %+v", rs)
	}
	if rs.BreakerRejects == 0 {
		t.Fatalf("open breaker never short-circuited the dead primary: %+v", rs)
	}
}

// TestChaosRevival: killing a shard mid-run degrades batches; reviving it
// heals them — the half-open probe closes the breaker and full results
// resume with no stale placeholders.
func TestChaosRevival(t *testing.T) {
	g := testGraph(t)
	const partitions, dead, batchSize = 3, 1, 16
	want := referenceResults(t, g, partitions, 1, batchSize)

	ft, client := buildChaosCluster(t, g, partitions, 1, ResilienceConfig{
		Retry:          RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond},
		Breaker:        BreakerConfig{Threshold: 2, OpenFor: 5 * time.Millisecond},
		PartialResults: true,
		Seed:           7,
	})
	roots := chaosRoots(g, 0, batchSize)

	ft.KillServer(dead)
	if _, err := sampler.KHop(bg, client, chaosSampling, roots); err == nil {
		t.Fatal("dead shard not annotated")
	}
	ft.ReviveServer(dead)
	time.Sleep(10 * time.Millisecond) // let the breaker's open window lapse

	res, err := sampler.KHop(bg, client, chaosSampling, roots)
	if err != nil {
		t.Fatalf("revived shard still failing: %v", err)
	}
	if !reflect.DeepEqual(res, want[0]) {
		t.Fatal("post-revival batch diverged from reference")
	}
	rs := client.Res.Snapshot()
	if rs.BreakerHalfOpens == 0 || rs.BreakerCloses == 0 {
		t.Fatalf("breaker never probed and re-closed after revival: %+v", rs)
	}
}

// TestFaultyTransportDeterministic: the same seed must reproduce the exact
// injected-fault sequence, the property chaos runs rely on for debugging.
func TestFaultyTransportDeterministic(t *testing.T) {
	run := func() []bool {
		inner := DirectTransport{Servers: []*Server{NewServer(testGraph(t), HashPartitioner{N: 1}, 0)}}
		ft := NewFaultyTransport(inner, 123)
		ft.SetFaults(FaultSpec{ErrRate: 0.3, DropRate: 0.1})
		outcomes := make([]bool, 200)
		for i := range outcomes {
			_, err := ft.Call(bg, 0, metaReq)
			outcomes[i] = err == nil
		}
		return outcomes
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different fault sequences")
	}
	fails := 0
	for _, ok := range a {
		if !ok {
			fails++
		}
	}
	if fails < 40 || fails > 120 {
		t.Fatalf("injected failure rate off: %d/200 failed at 40%% configured", fails)
	}
}

// TestFaultyDropRecyclesReply: a dropped reply is real server work whose
// pooled frame no caller will ever see, so the injector recycles it — the
// client-side transport and the server-side handler alike. Over 50 dropped
// one-sub attrs frames, every buffer taken from the pools goes back.
func TestFaultyDropRecyclesReply(t *testing.T) {
	srv := NewServer(testGraph(t), HashPartitioner{N: 1}, 0)
	ft := NewFaultyTransport(DirectTransport{Servers: []*Server{srv}}, 1)
	ft.SetFaults(FaultSpec{DropRate: 1})
	fh := NewFaultyHandler(srv, FaultSpec{DropRate: 1}, 1)
	frame, err := EncodePackedRequest([]PackedSubRequest{{Op: OpGetAttrs, Attrs: AttrsRequest{IDs: []graph.NodeID{1, 2, 3}}}}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Bytes.Recycle(frame)
	for _, side := range []struct {
		name string
		drop func() error
	}{
		{"FaultyTransport", func() error { _, err := ft.Call(bg, 0, frame); return err }},
		{"FaultyHandler", func() error { _, err := fh.Handle(bg, frame); return err }},
	} {
		handed, recycled := ownedLedger()
		for i := 0; i < 50; i++ {
			if err := side.drop(); !errors.Is(err, ErrConnDropped) {
				t.Fatalf("%s call %d: err = %v, want ErrConnDropped", side.name, i, err)
			}
		}
		h, r := ownedLedger()
		if h == handed {
			t.Fatalf("%s: the server took no pooled reply frames", side.name)
		}
		if h-handed != r-recycled {
			t.Fatalf("%s: %v reply buffers handed out, %v recycled", side.name, h-handed, r-recycled)
		}
	}
}

// TestChaosContextCancel: a canceled context must win over the retry loop
// immediately, not after exhausting backoff.
func TestChaosContextCancel(t *testing.T) {
	g := testGraph(t)
	ft, client := buildChaosCluster(t, g, 2, 1, ResilienceConfig{
		Retry: RetryPolicy{MaxAttempts: 50, BaseBackoff: 50 * time.Millisecond, MaxBackoff: 50 * time.Millisecond},
		Seed:  7,
	})
	ft.SetFaults(FaultSpec{ErrRate: 1})

	ctx, cancel := context.WithTimeout(bg, 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := sampler.KHop(ctx, client, chaosSampling, chaosRoots(g, 0, 8))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded through the retry loop, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("retry loop outlived its context by %v", elapsed)
	}
}

// TestChaosPackedSampleBatchUnderFaults reruns the headline chaos
// acceptance test from concurrent callers sharing one client: 20% injected
// faults, one spare replica per partition — every batch must still match
// the fault-free reference exactly. Retries wrap whole frames, each under
// its own caller's ctx, so one batch's failover never touches another's.
func TestChaosPackedSampleBatchUnderFaults(t *testing.T) {
	g := testGraph(t)
	const partitions, replicas, batches, batchSize, workers = 4, 2, 12, 24, 4
	want := referenceResults(t, g, partitions, batches, batchSize)

	part := HashPartitioner{N: partitions}
	servers := make([]*Server, 0, partitions*replicas)
	for r := 0; r < replicas; r++ {
		for p := 0; p < partitions; p++ {
			servers = append(servers, NewServer(g, part, p))
		}
	}
	ft := NewFaultyTransport(DirectTransport{Servers: servers}, 42)
	client, err := NewClientContext(bg, ft, part, 0,
		WithResilience(ResilienceConfig{
			Retry:   RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond, Jitter: 0.5},
			Breaker: BreakerConfig{Threshold: 10, OpenFor: 10 * time.Millisecond},
			Seed:    7,
		}),
		WithLayout(UniformLayout(partitions, replicas)))
	if err != nil {
		t.Fatal(err)
	}
	ft.SetFaults(FaultSpec{ErrRate: 0.2})

	got := make([]*sampler.Result, batches)
	errc := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := w; b < batches; b += workers {
				res, err := sampler.KHop(bg, client, chaosSampling, chaosRoots(g, b, batchSize))
				if err != nil {
					errc <- err
					return
				}
				got[b] = res
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("packed batch failed despite retries+replicas: %v", err)
	}
	for b := range got {
		if !reflect.DeepEqual(got[b], want[b]) {
			t.Fatalf("packed batch %d diverged from fault-free reference", b)
		}
	}
	if _, injected := ft.Counts(); injected == 0 {
		t.Fatal("no faults injected — chaos harness inert")
	}
	if client.Pack.Frames() == 0 {
		t.Fatal("no packed frames under chaos")
	}
	rs := client.Res.Snapshot()
	if rs.Retries+rs.Failovers == 0 {
		t.Fatalf("faults injected but no retries or failovers recorded: %+v", rs)
	}
}

// TestChaosFrameRecycling: request and reply frames are pooled on both ends
// of real TCP — the client encodes each request into a pooled frame and
// recycles it once its last retry or failover pass returns, the server
// recycles each request and reply, the client each reply once decoded into
// its caller's buffers — so a frame anyone still read after handing it back
// would surface as corrupted or rejected requests and results here.
// Concurrent callers share one client over a one-connection pool per
// endpoint, with dropped replies (each one a resent request frame) and
// latency spikes in the mix; every result must still equal the reference
// sampler's, every frame the run took from mem.Bytes must have gone back,
// and no pooled scratch may be left out.
func TestChaosFrameRecycling(t *testing.T) {
	g := testGraph(t)
	const partitions, replicas, batches, batchSize, workers = 2, 2, 16, 16, 4
	part := HashPartitioner{N: partitions}
	var addrs []string
	var servers []*TCPServer
	for ep := 0; ep < partitions*replicas; ep++ {
		srv, err := ServeTCP(NewServer(g, part, ep%partitions), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		servers = append(servers, srv)
		addrs = append(addrs, srv.Addr())
	}
	tr := DialTCP(addrs, 1)
	defer tr.Close()
	ft := NewFaultyTransport(tr, 11)
	// Read before the bootstrap: a server recycles its meta reply after the
	// flush that NewClientContext's read returns on, so only closing the
	// servers (below) orders that recycle before the closing read.
	handed, recycled := ownedLedger()
	client, err := NewClientContext(bg, ft, part, -1, WithResilience(ResilienceConfig{
		Retry:   RetryPolicy{MaxAttempts: 8, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
		Breaker: BreakerConfig{Threshold: 50, OpenFor: time.Millisecond},
		Seed:    7,
	}), WithLayout(UniformLayout(partitions, replicas)))
	if err != nil {
		t.Fatal(err)
	}
	ft.SetFaults(FaultSpec{DropRate: 0.1, SpikeRate: 0.2, Spike: 3 * time.Millisecond})

	got := make([]*sampler.Result, batches)
	errs := make([]error, batches)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := w; b < batches; b += workers {
				got[b], errs[b] = sampler.KHop(bg, client, chaosSampling, chaosRoots(g, b, batchSize))
			}
		}(w)
	}
	wg.Wait()
	// Compared only now, after every batch's frames went back to the pools
	// and were reused by the batches after it.
	for b := range got {
		if errs[b] != nil {
			t.Fatalf("batch %d failed under drops and spikes: %v", b, errs[b])
		}
		want, err := sampler.New(sampler.LocalStore{G: g}, chaosSampling).Sample(bg, chaosRoots(g, b, batchSize))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[b], want) {
			t.Fatalf("batch %d diverged from the reference sampler", b)
		}
		got[b].Release()
		want.Release()
	}
	if _, injected := ft.Counts(); injected == 0 {
		t.Fatal("no replies dropped — chaos harness inert")
	}
	// Closing the servers waits for every connection goroutine, and with it
	// each reply recycled after the flush its client read returned on.
	for _, srv := range servers {
		srv.Close()
	}
	if h, r := ownedLedger(); h-handed != r-recycled {
		t.Fatalf("%v owned buffers handed out, %v recycled", h-handed, r-recycled)
	}
	if out := mem.Outstanding(); out != 0 {
		t.Fatalf("%d pooled scratch buffers outstanding after the run", out)
	}
}

// ownedLedger reads the process-wide owned-buffer counters: buffers handed
// out by GetOwned and buffers recycled.
func ownedLedger() (handoffs, recycled float64) {
	snap := mem.Snapshot()
	handoffs, _ = snap.Get("owned_handoffs")
	recycled, _ = snap.Get("owned_recycled")
	return handoffs, recycled
}
