package gateway

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/mem"
	"lsdgnn/internal/sampler"
)

var bg = context.Background()

// echoBackend returns a trivially valid result for any batch.
func echoBackend(ctx context.Context, roots []graph.NodeID) (*sampler.Result, error) {
	return &sampler.Result{Roots: append([]graph.NodeID(nil), roots...)}, nil
}

func twoTenants() []TenantConfig {
	return []TenantConfig{
		{Name: "light", Key: "lk", Weight: 4},
		{Name: "heavy", Key: "hk", Weight: 1},
	}
}

func TestGatewayAuthAndEcho(t *testing.T) {
	g, err := New(Config{Tenants: twoTenants()}, echoBackend)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	res, err := g.Sample(bg, "lk", []graph.NodeID{1, 2, 3})
	if err != nil || len(res.Roots) != 3 {
		t.Fatalf("Sample = (%v, %v), want 3 roots", res, err)
	}
	if g.Stats().Admitted() != 1 || g.Stats().Completed() != 1 {
		t.Fatalf("admitted/completed = %d/%d, want 1/1",
			g.Stats().Admitted(), g.Stats().Completed())
	}

	_, err = g.Sample(bg, "no-such-key", []graph.NodeID{1})
	var ae *AuthError
	if !errors.As(err, &ae) {
		t.Fatalf("unknown key: err = %v, want *AuthError", err)
	}
	if g.Stats().AuthFailures() != 1 {
		t.Fatalf("auth_failures = %d, want 1", g.Stats().AuthFailures())
	}
}

func TestGatewayRateLimit(t *testing.T) {
	// Fake clock: the bucket holds 4 root-tokens and never refills unless
	// we advance the clock.
	var nowNs atomic.Int64
	clock := func() time.Time { return time.Unix(0, nowNs.Load()) }
	g, err := New(Config{
		Tenants: []TenantConfig{{Name: "a", Key: "ak", Rate: 1, Burst: 4}},
		Clock:   clock,
	}, echoBackend)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	if _, err := g.Sample(bg, "ak", []graph.NodeID{1, 2, 3, 4}); err != nil {
		t.Fatalf("within burst: %v", err)
	}
	_, err = g.Sample(bg, "ak", []graph.NodeID{5})
	rl, ok := AsRateLimited(err)
	if !ok {
		t.Fatalf("over burst: err = %v, want *RateLimitError", err)
	}
	if rl.Tenant != "a" || rl.RetryAfter <= 0 {
		t.Fatalf("RateLimitError = %+v, want tenant a with positive RetryAfter", rl)
	}
	if g.Stats().RateLimited() != 1 || g.Tenant("a").RateLimited() != 1 {
		t.Fatal("ratelimited counters did not move")
	}

	// Advance past RetryAfter: the bucket refills and admits again.
	nowNs.Add(int64(rl.RetryAfter) + int64(time.Second))
	if _, err := g.Sample(bg, "ak", []graph.NodeID{5}); err != nil {
		t.Fatalf("after refill: %v", err)
	}
}

// TestGatewayBackpressureShedsHeaviest: with the overload trigger armed,
// the tenant holding the heaviest per-weight queue sheds itself while a
// light tenant keeps admitting.
func TestGatewayBackpressureShedsHeaviest(t *testing.T) {
	var pressure atomic.Value
	pressure.Store(0.0)
	blocking, started, release := gatedBackend()
	g, err := New(Config{
		Tenants:     twoTenants(),
		MaxInflight: 1,
		Pressure:    func() float64 { return pressure.Load().(float64) },
	}, blocking)
	if err != nil {
		t.Fatal(err)
	}

	// One heavy batch occupies the backend; two more sit in heavy's queue.
	var wg sync.WaitGroup
	results := make(chan error, 8)
	sampleAsync := func(key string, n int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			roots := make([]graph.NodeID, n)
			_, err := g.Sample(bg, key, roots)
			results <- err
		}()
	}
	sampleAsync("hk", 8)
	<-started // backend holds batch 1
	sampleAsync("hk", 8)
	sampleAsync("hk", 8)
	waitFor(t, func() bool { return g.Stats().Admitted() == 3 })

	// Arm the trigger: heavy (16 queued roots / weight 1) is heaviest, so
	// its next batch sheds; light's empty queue admits.
	pressure.Store(1.0)
	_, err = g.Sample(bg, "hk", make([]graph.NodeID, 8))
	shed, ok := AsShed(err)
	if !ok || shed.Tenant != "heavy" || shed.Reason != "backpressure" {
		t.Fatalf("heavy under pressure: err = %v, want backpressure AdmissionError", err)
	}
	sampleAsync("lk", 4)
	waitFor(t, func() bool { return g.Tenant("light").Admitted() == 1 })
	if got := g.Tenant("light").Shed(); got != 0 {
		t.Fatalf("light shed = %d, want 0", got)
	}
	if got := g.Tenant("heavy").Shed(); got != 1 {
		t.Fatalf("heavy shed = %d, want 1", got)
	}

	// Disarm and unblock the backend: everything admitted completes.
	pressure.Store(0.0)
	close(release)
	go func() { wg.Wait(); close(results) }()
	for err := range results {
		if err != nil {
			t.Fatalf("admitted batch failed: %v", err)
		}
	}
	g.Close()
}

func TestGatewayQueueFullSheds(t *testing.T) {
	blocking, started, release := gatedBackend()
	g, err := New(Config{
		Tenants:     []TenantConfig{{Name: "a", Key: "ak"}},
		QueueDepth:  1,
		MaxInflight: 1,
	}, blocking)
	if err != nil {
		t.Fatal(err)
	}

	queueLen := func() int {
		g.mu.Lock()
		defer g.mu.Unlock()
		return len(g.byName["a"].queue)
	}
	var wg sync.WaitGroup
	sampleAsync := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := g.Sample(bg, "ak", []graph.NodeID{1}); err != nil {
				t.Errorf("admitted batch failed: %v", err)
			}
		}()
	}
	sampleAsync()
	<-started // batch 1 holds the only backend slot
	sampleAsync()
	waitFor(t, func() bool { return queueLen() == 1 })
	// Depth 1 bounds the waiting batches: with batch 2 queued, the next
	// batch must shed.
	_, err = g.Sample(bg, "ak", []graph.NodeID{2})
	if shed, ok := AsShed(err); !ok || shed.Reason != "queue full" {
		t.Fatalf("err = %v, want queue-full AdmissionError", err)
	}
	close(release)
	wg.Wait()
	g.Close()
}

// TestDRRFairShare drives the scheduler directly: with weights 4:1 and
// enough single-root batches queued on both tenants that each takes
// several turns, the weighted tenant drains ~4× faster.
func TestDRRFairShare(t *testing.T) {
	g := &Gateway{
		cfg:    Config{}.withDefaults(),
		byKey:  map[string]*tenant{},
		byName: map[string]*tenant{},
	}
	for _, tc := range twoTenants() {
		norm, err := tc.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		tn := &tenant{cfg: norm, stats: newTenantStats(norm.Name)}
		g.byName[norm.Name] = tn
		g.order = append(g.order, tn)
	}
	for _, tn := range g.order {
		for i := 0; i < 400; i++ {
			tn.queue = append(tn.queue, &waiter{roots: make([]graph.NodeID, 1)})
			tn.queuedRoots++
		}
	}
	counts := map[string]int{}
	for i := 0; i < 500; i++ {
		w, tn := g.nextLocked()
		if w == nil {
			t.Fatal("scheduler returned nil with backlogged queues")
		}
		counts[tn.cfg.Name]++
	}
	if counts["light"] < 3*counts["heavy"] {
		t.Fatalf("weight-4 tenant served %d vs weight-1's %d, want ≥3×",
			counts["light"], counts["heavy"])
	}
	if counts["heavy"] == 0 {
		t.Fatal("weight-1 tenant starved")
	}
}

// TestDRRLargeBatchNotStarved: a queued batch costing more than one
// quantum×weight round still gets the next slot — deficits accumulate
// across rounds for backlogged tenants.
func TestDRRLargeBatchNotStarved(t *testing.T) {
	gated, started, release := gatedBackend()
	g, err := New(Config{Tenants: twoTenants(), MaxInflight: 1}, gated)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	go g.Sample(bg, "lk", []graph.NodeID{1})
	<-started
	// 100 roots > quantum(32)×weight(1): needs four rounds of credit.
	done := make(chan error, 1)
	go func() {
		res, err := g.Sample(bg, "hk", make([]graph.NodeID, 100))
		if err == nil && len(res.Roots) != 100 {
			err = fmt.Errorf("got %d roots", len(res.Roots))
		}
		done <- err
	}()
	waitFor(t, func() bool { return g.Stats().Admitted() == 2 })
	close(release)
	if n := len(<-started); n != 100 {
		t.Fatalf("next batch run has %d roots, want the 100-root batch", n)
	}
	if err := <-done; err != nil {
		t.Fatalf("large batch: %v", err)
	}
}

func TestGatewayCanceledWhileQueued(t *testing.T) {
	blocking, started, release := gatedBackend()
	g, err := New(Config{Tenants: twoTenants(), MaxInflight: 1}, blocking)
	if err != nil {
		t.Fatal(err)
	}

	go g.Sample(bg, "hk", []graph.NodeID{1})
	<-started
	ctx, cancel := context.WithCancel(bg)
	done := make(chan error, 1)
	go func() {
		_, err := g.Sample(ctx, "hk", []graph.NodeID{2})
		done <- err
	}()
	waitFor(t, func() bool { return g.Stats().Admitted() == 2 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(release)
	g.Close()
}

func TestGatewayClose(t *testing.T) {
	g, err := New(Config{Tenants: twoTenants()}, echoBackend)
	if err != nil {
		t.Fatal(err)
	}
	g.Close()
	if _, err := g.Sample(bg, "lk", []graph.NodeID{1}); err == nil {
		t.Fatal("Sample after Close succeeded")
	}
}

func TestGatewaySnapshotAndSources(t *testing.T) {
	g, err := New(Config{Tenants: twoTenants()}, echoBackend)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.Sample(bg, "lk", []graph.NodeID{1}); err != nil {
		t.Fatal(err)
	}
	rows := g.Snapshot()
	if len(rows) != 2 || rows[0].Name != "heavy" || rows[1].Name != "light" {
		t.Fatalf("snapshot rows = %+v, want sorted heavy/light", rows)
	}
	if rows[1].Admitted != 1 || rows[1].Completed != 1 {
		t.Fatalf("light row = %+v, want 1 admitted/completed", rows[1])
	}
	if len(g.Sources()) != 3 { // gateway + 2 tenants
		t.Fatalf("sources = %d, want 3", len(g.Sources()))
	}
	// Per-tenant SLO objectives are declared at construction.
	if g.TenantSLO("light") == nil || g.TenantSLO("heavy") == nil {
		t.Fatal("per-tenant SLOs missing")
	}
}

func TestParseTenants(t *testing.T) {
	ts, err := ParseTenants("name=alice,key=ak1,class=latency,rate=500,burst=64,weight=4,slo=50ms;name=bob,key=bk1,class=throughput,rate=100")
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 {
		t.Fatalf("parsed %d tenants, want 2", len(ts))
	}
	a := ts[0]
	if a.Name != "alice" || a.Key != "ak1" || a.Rate != 500 || a.Burst != 64 ||
		a.Weight != 4 || a.SLO != 50*time.Millisecond {
		t.Fatalf("alice = %+v", a)
	}
	if ts[1].Class != ClassThroughput || ts[1].Weight != 1 || ts[1].Burst != 100 {
		t.Fatalf("bob defaults = %+v", ts[1])
	}
	for _, bad := range []string{
		"",
		"key=nk",                      // no name
		"name=x",                      // no key
		"name=x,key=k,class=premium",  // unknown class
		"name=x,key=k;name=x,key=j",   // duplicate name
		"name=x,key=k;name=y,key=k",   // duplicate key
		"name=x,key=k,rate=fast",      // bad number
		"name=x,key=k,slo=soon",       // bad duration
		"name=x,key=k,favourite=blue", // unknown field
		"name=x,key=k,weight",         // not key=value
		"name=x,key=k,rate=NaN",       // not a number
		"name=x,key=k,rate=+Inf",      // unbounded rate
		"name=x,key=k,burst=NaN",      // not a number
		"name=x,key=k,slo=-1s",        // negative objective
	} {
		if _, err := ParseTenants(bad); err == nil {
			t.Errorf("ParseTenants(%q) accepted", bad)
		}
	}
}

// FuzzParseTenants: the -tenants parser never panics, and every tenant it
// accepts is servable — a name and key, finite non-negative rate and
// burst, weight at least 1 and a positive latency objective.
func FuzzParseTenants(f *testing.F) {
	for _, seed := range []string{
		"name=alice,key=ak1,class=latency,rate=500,burst=64,weight=4,slo=50ms;name=bob,key=bk1,class=throughput,rate=100",
		"name=x,key=k,rate=0.25",
		"name=x,key=k,rate=NaN",
		"name=x,key=k,rate=+Inf,burst=1",
		"name=x,key=k,burst=NaN",
		"name=x,key=k,burst=1e400",
		"name=x,key=k,slo=-1s",
		"name=x,key=k,weight=-3",
		"name=x,key=k;name=y,key=k",
		";;name=x,key=k,,",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		ts, err := ParseTenants(spec)
		if err != nil {
			return
		}
		for _, c := range ts {
			if c.Name == "" || c.Key == "" || !finite(c.Rate) || c.Rate < 0 || !finite(c.Burst) || c.Burst < 0 ||
				c.Weight < 1 || c.SLO <= 0 {
				t.Fatalf("ParseTenants(%q) accepted %+v", spec, c)
			}
		}
	})
}

func TestBucketRefill(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBucket(10, 5, func() time.Time { return now })
	if ok, _ := b.take(5); !ok {
		t.Fatal("full bucket refused its burst")
	}
	ok, retry := b.take(1)
	if ok {
		t.Fatal("empty bucket granted a token")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retry = %v, want (0, 1s]", retry)
	}
	now = now.Add(100 * time.Millisecond) // 1 token refilled
	if ok, _ := b.take(1); !ok {
		t.Fatal("refilled token not granted")
	}
	// nil bucket (unlimited tenant) admits everything.
	var unlimited *bucket
	if ok, _ := unlimited.take(1e9); !ok {
		t.Fatal("nil bucket refused")
	}
}

// gatedBackend returns a backend that announces each batch's roots on
// started, then holds the batch until release is closed. The buffer holds
// more batches than any test sends.
func gatedBackend() (Backend, chan []graph.NodeID, chan struct{}) {
	started := make(chan []graph.NodeID, 16)
	release := make(chan struct{})
	return func(ctx context.Context, roots []graph.NodeID) (*sampler.Result, error) {
		started <- roots
		<-release
		return echoBackend(ctx, roots)
	}, started, release
}

// waitFor polls cond for up to 2s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in 2s")
}

// errorBackend exercises the failure accounting path.
func TestGatewayBackendError(t *testing.T) {
	g, err := New(Config{Tenants: twoTenants()}, func(ctx context.Context, roots []graph.NodeID) (*sampler.Result, error) {
		return nil, fmt.Errorf("store down")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.Sample(bg, "lk", []graph.NodeID{1}); err == nil {
		t.Fatal("backend error swallowed")
	}
	if g.Tenant("light").Completed() != 0 {
		t.Fatal("failed batch counted as completed")
	}
	snap := g.Tenant("light").StatsSnapshot()
	var errCount float64
	for _, m := range snap.Metrics {
		if m.Name == "batch_errors" {
			errCount = m.Value
		}
	}
	if errCount != 1 {
		t.Fatalf("tenant batch_errors = %v, want 1", errCount)
	}
}

// TestGatewaySlotGoesToDRRChoice: a freed slot goes to the batch deficit
// round-robin picks when the slot frees, not to whichever batch queued
// first. Heavy's second batch queues before light's, yet light runs next.
func TestGatewaySlotGoesToDRRChoice(t *testing.T) {
	gated, started, release := gatedBackend()
	g, err := New(Config{Tenants: twoTenants(), MaxInflight: 1}, gated)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	sampleAsync := func(key string, tag graph.NodeID) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := g.Sample(bg, key, []graph.NodeID{tag}); err != nil {
				t.Errorf("%s batch %d: %v", key, tag, err)
			}
		}()
	}
	sampleAsync("hk", 1)
	if got := (<-started)[0]; got != 1 {
		t.Fatalf("first batch run = %d, want heavy's 1", got)
	}
	sampleAsync("hk", 2)
	waitFor(t, func() bool { return g.Stats().Admitted() == 2 })
	sampleAsync("lk", 3)
	waitFor(t, func() bool { return g.Stats().Admitted() == 3 })
	close(release)
	if got := (<-started)[0]; got != 3 {
		t.Fatalf("freed slot ran batch %d, want light's 3 (slot went to heavy)", got)
	}
	if got := (<-started)[0]; got != 2 {
		t.Fatalf("last batch run = %d, want heavy's 2", got)
	}
	wg.Wait()
	g.Close()
}

// TestGatewayCloseDrains: Close waits for the running batch and the one
// queued behind it, both of which complete with results; a Sample after
// Close fails.
func TestGatewayCloseDrains(t *testing.T) {
	gated, started, release := gatedBackend()
	g, err := New(Config{Tenants: twoTenants(), MaxInflight: 1}, gated)
	if err != nil {
		t.Fatal(err)
	}
	results := make(chan *sampler.Result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			res, err := g.Sample(bg, "lk", []graph.NodeID{1})
			if err != nil {
				t.Errorf("admitted batch failed: %v", err)
			}
			results <- res
		}()
		if i == 0 {
			<-started
		}
	}
	waitFor(t, func() bool { return g.Stats().Admitted() == 2 })
	closed := make(chan struct{})
	go func() { g.Close(); close(closed) }()
	waitFor(t, func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.closed
	})
	if _, err := g.Sample(bg, "lk", []graph.NodeID{1}); err == nil {
		t.Fatal("Sample after Close succeeded")
	}
	select {
	case <-closed:
		t.Fatal("Close returned with batches still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-closed
	for i := 0; i < 2; i++ {
		if res := <-results; res == nil || len(res.Roots) != 1 {
			t.Fatalf("batch %d result = %v, want one root", i, res)
		}
	}
	if c := g.Stats().Completed(); c != 2 {
		t.Fatalf("completed = %d, want 2", c)
	}
}

// TestGatewayNoSlotLost: waiters that cancel at random points — some as a
// slot is granted to them — and a backend that panics once leave the one
// slot free: afterwards a fresh Sample runs.
func TestGatewayNoSlotLost(t *testing.T) {
	const faulty = graph.NodeID(1 << 20)
	backend := func(ctx context.Context, roots []graph.NodeID) (*sampler.Result, error) {
		if roots[0] == faulty {
			panic("backend fault")
		}
		time.Sleep(time.Duration(roots[0]%5) * 50 * time.Microsecond)
		return echoBackend(ctx, roots)
	}
	g, err := New(Config{Tenants: twoTenants(), MaxInflight: 1}, backend)
	if err != nil {
		t.Fatal(err)
	}
	var panics atomic.Int64
	var wg sync.WaitGroup
	sample := func(ctx context.Context, key string, root graph.NodeID) {
		defer func() {
			if r := recover(); r != nil {
				panics.Add(1)
			}
		}()
		g.Sample(ctx, key, []graph.NodeID{root})
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Bounded, so a lost slot fails the test instead of hanging it.
		ctx, cancel := context.WithTimeout(bg, 2*time.Second)
		defer cancel()
		sample(ctx, "hk", faulty)
	}()
	for w := 0; w < 24; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := [2]string{"lk", "hk"}[w%2]
			for i := 0; i < 20; i++ {
				ctx, cancel := context.WithTimeout(bg, time.Duration((w*7+i*3)%11)*100*time.Microsecond)
				sample(ctx, key, graph.NodeID(w+i))
				cancel()
			}
		}(w)
	}
	wg.Wait()
	if panics.Load() != 1 {
		t.Fatalf("recovered %d panics, want 1", panics.Load())
	}
	ctx, cancel := context.WithTimeout(bg, 2*time.Second)
	defer cancel()
	if _, err := g.Sample(ctx, "lk", []graph.NodeID{1}); err != nil {
		t.Fatalf("Sample after the storm: %v (a slot was lost)", err)
	}
	g.mu.Lock()
	running, depth := g.running, g.depthLocked()
	g.mu.Unlock()
	if running != 0 || depth != 0 {
		t.Fatalf("after the storm: %d running, %d queued, want 0/0", running, depth)
	}
	g.Close()
}

// TestGatewayAbandonedResultReleased: a batch runs on its caller's
// goroutine, so a caller whose deadline passes mid-run still receives the
// result and can release it — no pooled region is stranded — and a
// backend that honours ctx fails the batch promptly at the deadline.
func TestGatewayAbandonedResultReleased(t *testing.T) {
	t.Run("ctx-ignoring backend", func(t *testing.T) {
		gr := graph.Generate(graph.GenConfig{NumNodes: 200, AvgDegree: 4, AttrLen: 4, Seed: 1})
		cfg := sampler.Config{Fanouts: []int{3, 2}, FetchAttrs: true, Seed: 1}
		slow := func(_ context.Context, roots []graph.NodeID) (*sampler.Result, error) {
			res, err := sampler.KHop(context.Background(), sampler.LocalStore{G: gr}, cfg, roots)
			time.Sleep(20 * time.Millisecond)
			return res, err
		}
		start := mem.LiveRegions()
		g, err := New(Config{Tenants: twoTenants()}, slow)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(bg, 5*time.Millisecond)
		defer cancel()
		res, _ := g.Sample(ctx, "lk", []graph.NodeID{1, 2})
		if res != nil {
			res.Release()
		}
		g.Close()
		if got := mem.LiveRegions(); got != start {
			t.Fatalf("live regions %d → %d: the abandoned result was never released", start, got)
		}
	})
	t.Run("ctx-honouring backend", func(t *testing.T) {
		honest := func(ctx context.Context, roots []graph.NodeID) (*sampler.Result, error) {
			select {
			case <-time.After(5 * time.Second):
				return echoBackend(ctx, roots)
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		g, err := New(Config{Tenants: twoTenants()}, honest)
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		ctx, cancel := context.WithTimeout(bg, 5*time.Millisecond)
		defer cancel()
		begin := time.Now()
		_, err = g.Sample(ctx, "lk", []graph.NodeID{1})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
		if took := time.Since(begin); took > time.Second {
			t.Fatalf("deadline honoured after %v, want promptly", took)
		}
	})
}
