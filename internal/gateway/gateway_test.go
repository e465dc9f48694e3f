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
	release := make(chan struct{})
	started := make(chan struct{}, 64)
	blocking := func(ctx context.Context, roots []graph.NodeID) (*sampler.Result, error) {
		started <- struct{}{}
		<-release
		return echoBackend(ctx, roots)
	}
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
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	blocking := func(ctx context.Context, roots []graph.NodeID) (*sampler.Result, error) {
		started <- struct{}{}
		<-release
		return echoBackend(ctx, roots)
	}
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
	<-started // batch 1 occupies the backend
	sampleAsync()
	// Wait until the scheduler has dequeued batch 2 (it parks on the
	// in-flight semaphore), then fill the queue with batch 3.
	waitFor(t, func() bool { return g.Stats().Admitted() == 2 && queueLen() == 0 })
	sampleAsync()
	waitFor(t, func() bool { return queueLen() == 1 })
	// Depth 1 is the configured bound: the next batch must shed.
	_, err = g.Sample(bg, "ak", []graph.NodeID{2})
	if shed, ok := AsShed(err); !ok || shed.Reason != "queue full" {
		t.Fatalf("err = %v, want queue-full AdmissionError", err)
	}
	close(release)
	wg.Wait()
	g.Close()
}

// TestDRRFairShare drives the scheduler directly: with weights 4:1 and
// single-root batches queued on both tenants, the weighted tenant drains
// ~4× faster.
func TestDRRFairShare(t *testing.T) {
	g := &Gateway{
		cfg:    Config{Quantum: 1}.withDefaults(),
		byKey:  map[string]*tenant{},
		byName: map[string]*tenant{},
	}
	g.cfg.Quantum = 1
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
		for i := 0; i < 40; i++ {
			tn.queue = append(tn.queue, &call{roots: make([]graph.NodeID, 1)})
			tn.queuedRoots++
		}
	}
	counts := map[string]int{}
	for i := 0; i < 50; i++ {
		c, tn := g.nextLocked()
		if c == nil {
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

// TestDRRLargeBatchNotStarved: a batch costing more than one quantum×weight
// round still runs — deficits accumulate across rounds for backlogged
// tenants.
func TestDRRLargeBatchNotStarved(t *testing.T) {
	g, err := New(Config{Tenants: twoTenants(), Quantum: 1}, echoBackend)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	// 100 roots ≫ quantum(1)×weight(1): needs 100 rounds of credit.
	res, err := g.Sample(bg, "hk", make([]graph.NodeID, 100))
	if err != nil || len(res.Roots) != 100 {
		t.Fatalf("large batch: (%v, %v)", res, err)
	}
}

func TestGatewayCanceledWhileQueued(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	blocking := func(ctx context.Context, roots []graph.NodeID) (*sampler.Result, error) {
		started <- struct{}{}
		<-release
		return echoBackend(ctx, roots)
	}
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
