package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lsdgnn/internal/graph"
)

// TestUniformReplicas: UniformLayout spreads replica r of partition p to
// endpoint r*partitions+p.
func TestUniformReplicas(t *testing.T) {
	l := UniformLayout(3, 2)
	if len(l.Partitions) != 3 || l.Epoch != 1 {
		t.Fatalf("%d partitions at epoch %d, want 3 at 1", len(l.Partitions), l.Epoch)
	}
	for p := 0; p < 3; p++ {
		if got := l.Routable(p); len(got) != 2 || got[0] != p || got[1] != 3+p {
			t.Fatalf("partition %d routed to %v", p, got)
		}
	}
	if err := l.Validate(3); err != nil {
		t.Fatal(err)
	}
}

func TestUniformReplicasClampsReplicas(t *testing.T) {
	// replicas < 1 clamps to the meaningful no-replication default.
	if l := UniformLayout(3, 0); len(l.Partitions) != 3 || len(l.Partitions[0]) != 1 || l.Partitions[0][0] != 0 {
		t.Fatalf("replicas<1 should clamp to identity, got %v", l.Partitions)
	}
}

// TestNewLayoutValidate: NewLayout is where a replica map is checked.
func TestNewLayoutValidate(t *testing.T) {
	if _, err := NewLayout(4, nil); err != nil {
		t.Fatalf("nil map rejected: %v", err)
	}
	if _, err := NewLayout(3, [][]int{{0}, {1}}); err == nil {
		t.Fatal("short map accepted")
	}
	if _, err := NewLayout(2, [][]int{{0}, {1}, {2}}); err == nil {
		t.Fatal("long map accepted: its extra row would route nowhere")
	}
	if _, err := NewLayout(3, [][]int{{0}, {}, {2}}); err == nil {
		t.Fatal("endpoint-less partition accepted")
	}
	if _, err := NewLayout(3, [][]int{{0}, {-1}, {2}}); err == nil {
		t.Fatal("negative endpoint accepted")
	}
}

// layoutResilience builds an executor routing by NewLayout over m — the
// one-partition identity layout when m is nil — outside any client.
func layoutResilience(t *testing.T, cfg ResilienceConfig, st *ResilienceStats, m [][]int) *resilience {
	t.Helper()
	l, err := NewLayout(max(len(m), 1), m)
	if err != nil {
		t.Fatal(err)
	}
	lay := new(atomic.Pointer[Layout])
	lay.Store(l)
	return newResilience(cfg, st, lay, nil)
}

// TestBreakerStateMachine walks the full closed → open → half-open cycle,
// both the reopen and the recovery arm, checking transition counters.
func TestBreakerStateMachine(t *testing.T) {
	st := &ResilienceStats{}
	b := &breaker{cfg: BreakerConfig{Threshold: 2, OpenFor: 20 * time.Millisecond}, st: st}
	allowed := func() bool { ok, _ := b.Allow(); return ok }

	if ok, probe := b.Allow(); !ok || probe || b.State() != BreakerClosed {
		t.Fatal("fresh breaker not closed (or handed out a probe)")
	}
	b.onFailure()
	if b.State() != BreakerClosed {
		t.Fatal("opened below threshold")
	}
	b.onFailure()
	if b.State() != BreakerOpen || allowed() {
		t.Fatal("threshold failures did not open and shed")
	}

	time.Sleep(25 * time.Millisecond)
	if ok, probe := b.Allow(); !ok || !probe {
		t.Fatal("no half-open probe after OpenFor")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %v after probe admitted", b.State())
	}
	if allowed() {
		t.Fatal("second concurrent probe admitted")
	}
	b.onFailure() // probe fails → reopen
	if b.State() != BreakerOpen {
		t.Fatal("failed probe did not reopen")
	}

	time.Sleep(25 * time.Millisecond)
	if ok, probe := b.Allow(); !ok || !probe {
		t.Fatal("no probe after reopen window")
	}
	b.onSuccess()
	if b.State() != BreakerClosed || !allowed() {
		t.Fatal("successful probe did not close")
	}

	snap := st.Snapshot()
	if snap.BreakerOpens != 2 || snap.BreakerHalfOpens != 2 || snap.BreakerCloses != 1 {
		t.Fatalf("transition counters wrong: %+v", snap)
	}
	for s, want := range map[BreakerState]string{BreakerClosed: "closed", BreakerOpen: "open", BreakerHalfOpen: "half-open"} {
		if s.String() != want {
			t.Fatalf("BreakerState(%d).String() = %q", int(s), s.String())
		}
	}
}

// TestBreakerProbeAbandonedOnCancel: a half-open probe whose call is
// canceled mid-flight carries no verdict on the endpoint. The probe slot
// must be released — not left held forever, which would wedge the breaker
// in half-open and blacklist a healthy endpoint permanently.
func TestBreakerProbeAbandonedOnCancel(t *testing.T) {
	st := &ResilienceStats{}
	r := layoutResilience(t, ResilienceConfig{
		Retry:   RetryPolicy{MaxAttempts: 1, BaseBackoff: time.Microsecond, MaxBackoff: time.Microsecond},
		Breaker: BreakerConfig{Threshold: 1, OpenFor: time.Millisecond},
	}, st, nil)
	r.breaker(0).onFailure() // threshold 1: open immediately
	if r.BreakerState(0) != BreakerOpen {
		t.Fatal("breaker not open")
	}
	time.Sleep(2 * time.Millisecond) // let the open window lapse

	// The admitted half-open probe is canceled before it resolves.
	ctx, cancel := context.WithCancel(context.Background())
	hang := func(ctx context.Context, ep int, req []byte) ([]byte, error) {
		cancel()
		<-ctx.Done()
		return nil, ctx.Err()
	}
	if _, err := r.call(ctx, 1, 0, metaReq, hang); !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}

	// A later call must be admitted as a fresh probe and, on success,
	// close the breaker — the time-based escape from half-open survives.
	healthy := func(ctx context.Context, ep int, req []byte) ([]byte, error) { return []byte{1}, nil }
	if _, err := r.call(context.Background(), 1, 0, metaReq, healthy); err != nil {
		t.Fatalf("breaker wedged after abandoned probe: %v", err)
	}
	if r.BreakerState(0) != BreakerClosed {
		t.Fatalf("state %v after successful probe", r.BreakerState(0))
	}
}

// TestServerErrorNotRetried: a deterministic application rejection (here
// an out-of-range node ID) is indistinguishable from endpoint failure only
// if left untyped. Typed as *ServerError it must consume exactly one
// transport call — no retries, no failover — and must not count against
// the endpoint's circuit breaker, which just proved the endpoint alive.
func TestServerErrorNotRetried(t *testing.T) {
	g := testGraph(t)
	const partitions = 2
	ft, client := buildChaosCluster(t, g, partitions, 2, ResilienceConfig{
		Retry:   RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Microsecond, MaxBackoff: time.Microsecond},
		Breaker: BreakerConfig{Threshold: 1, OpenFor: time.Minute},
	})
	before, _ := ft.Counts()
	huge := graph.NodeID(1 << 40)
	_, err := getNeighbors(client, []graph.NodeID{huge})
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("want *ServerError, got %v", err)
	}
	if !strings.Contains(se.Msg, "outside graph") {
		t.Fatalf("wrong rejection: %+v", se)
	}
	after, _ := ft.Counts()
	if after-before != 1 {
		t.Fatalf("deterministic rejection consumed %d transport calls, want 1", after-before)
	}
	snap := client.Res.Snapshot()
	if snap.Retries != 0 || snap.Failovers != 0 {
		t.Fatalf("rejection burned retries/failovers: %+v", snap)
	}
	owner := HashPartitioner{N: partitions}.Owner(huge)
	if client.res.BreakerState(owner) != BreakerClosed {
		t.Fatal("rejection counted against the breaker (threshold 1 opened it)")
	}

	// GetNeighbors / GetAttrs are sub-ops, not frame ops: a peer that sends
	// one as a frame of its own gets the same terminal verdict.
	for _, op := range []byte{OpGetNeighbors, OpGetAttrs} {
		before, _ := ft.Counts()
		_, err := client.call(bg, 0, bare(op, 1, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0))
		if !errors.As(err, &se) || !strings.Contains(se.Msg, "unknown op") {
			t.Fatalf("top-level op %#x: want an unknown-op *ServerError, got %v", op, err)
		}
		if after, _ := ft.Counts(); after-before != 1 {
			t.Fatalf("top-level op %#x consumed %d transport calls, want 1", op, after-before)
		}
	}
	if snap := client.Res.Snapshot(); snap.Retries != 0 || snap.Failovers != 0 || snap.BreakerOpens != 0 {
		t.Fatalf("top-level ops burned retries, failovers or breaker strikes: %+v", snap)
	}
	if client.res.BreakerState(0) != BreakerClosed {
		t.Fatal("top-level op counted against the breaker (threshold 1 opened it)")
	}
}

// TestFailFastNeverOpensBreaker: a client without a policy runs failFast —
// one pass per call and a breaker that never opens — so every call to a
// dead shard still reaches the transport, and the breaker gauges stay 0.
func TestFailFastNeverOpensBreaker(t *testing.T) {
	g := testGraph(t)
	part := HashPartitioner{N: 1}
	ft := NewFaultyTransport(DirectTransport{Servers: []*Server{NewServer(g, part, 0)}}, 1)
	client, err := NewClient(ft, part, -1)
	if err != nil {
		t.Fatal(err)
	}
	ft.KillServer(0)
	before, _ := ft.Counts()
	for i := 0; i < 10; i++ {
		if _, err := getNeighbors(client, []graph.NodeID{0}); err == nil {
			t.Fatal("dead server not reported")
		}
	}
	if after, _ := ft.Counts(); after-before != 10 {
		t.Fatalf("10 calls to a dead shard made %d transport calls, want 10", after-before)
	}
	gauges := map[string]float64{}
	for _, m := range client.Res.StatsSnapshot().Metrics {
		gauges[m.Name] = m.Value
	}
	for _, name := range []string{"breakers_open", "breakers_half_open"} {
		if v, ok := gauges[name]; !ok || v != 0 {
			t.Fatalf("gauge %q = %v (reported %v), want 0", name, v, ok)
		}
	}
}

// TestClientWithoutPolicyFailsOver: a client without a policy routes by
// its layout like any other, so with the primary dead its one pass fails
// over to the replica.
func TestClientWithoutPolicyFailsOver(t *testing.T) {
	g := testGraph(t)
	part := HashPartitioner{N: 1}
	servers := []*Server{NewServer(g, part, 0), NewServer(g, part, 0)}
	ft := NewFaultyTransport(DirectTransport{Servers: servers}, 1)
	client, err := NewClientContext(bg, ft, part, -1, WithLayout(UniformLayout(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	ft.KillServer(0)
	before, _ := ft.Counts()
	lists, err := getNeighbors(client, []graph.NodeID{0})
	if err != nil {
		t.Fatalf("replica did not serve: %v", err)
	}
	if !idListsEqual(lists[0], g.Neighbors(0)) {
		t.Fatal("replica served the wrong list")
	}
	if after, _ := ft.Counts(); after-before != 2 {
		t.Fatalf("one pass made %d transport calls, want 2 (primary, replica)", after-before)
	}
	if snap := client.Res.Snapshot(); snap.Failovers != 1 || snap.Retries != 0 {
		t.Fatalf("want 1 failover and no retry, got %+v", snap)
	}
}

// TestRetryDeadline: the backoff loop must abandon remaining attempts the
// moment the context expires, surfacing ctx.Err().
func TestRetryDeadline(t *testing.T) {
	r := layoutResilience(t, ResilienceConfig{
		Retry: RetryPolicy{MaxAttempts: 1000, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 10 * time.Millisecond},
	}, &ResilienceStats{}, nil)
	boom := func(ctx context.Context, ep int, req []byte) ([]byte, error) {
		return nil, errors.New("boom")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := r.call(ctx, r.cfg.Retry.MaxAttempts, 0, metaReq, boom)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("1000-attempt policy ran %v past a 30ms deadline", elapsed)
	}
}

// TestRetryExhaustionReportsEveryPass: when all attempts fail, the error
// must carry the attempt count and every endpoint's failure.
func TestRetryExhaustionReportsEveryPass(t *testing.T) {
	st := &ResilienceStats{}
	r := layoutResilience(t, ResilienceConfig{
		Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Microsecond, MaxBackoff: time.Microsecond},
	}, st, [][]int{{0, 1}})
	_, err := r.call(context.Background(), r.cfg.Retry.MaxAttempts, 0, metaReq, func(ctx context.Context, ep int, req []byte) ([]byte, error) {
		return nil, fmt.Errorf("ep%d down", ep)
	})
	if err == nil {
		t.Fatal("exhausted retries returned nil error")
	}
	for _, frag := range []string{"3 attempt(s)", "ep0 down", "ep1 down"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("error %q missing %q", err, frag)
		}
	}
	if snap := st.Snapshot(); snap.Retries != 2 || snap.Failovers != 3 {
		t.Fatalf("want 2 retries and 3 failovers, got %+v", snap)
	}
}

// TestFanoutErrorsJoined: without PartialResults, a multi-shard failure
// must report every failed server (errors.Join), not just the first.
func TestFanoutErrorsJoined(t *testing.T) {
	g := testGraph(t)
	part := HashPartitioner{N: 2}
	servers := []*Server{NewServer(g, part, 0), NewServer(g, part, 1)}
	ft := NewFaultyTransport(DirectTransport{Servers: servers}, 1)
	client, err := NewClient(ft, part, -1)
	if err != nil {
		t.Fatal(err)
	}
	ft.KillServer(0)
	ft.KillServer(1)
	ids := []graph.NodeID{0, 1, 2, 3} // spans both partitions under hash
	_, err = getNeighbors(client, ids)
	if err == nil {
		t.Fatal("dead cluster returned no error")
	}
	if !strings.Contains(err.Error(), "server 0") || !strings.Contains(err.Error(), "server 1") {
		t.Fatalf("aggregate error dropped a shard: %v", err)
	}
	if !errors.Is(err, ErrServerDown) {
		t.Fatalf("joined error lost the cause chain: %v", err)
	}
}

// flakyTransport fails its first n calls, then delegates.
type flakyTransport struct {
	inner Transport
	left  int
}

func (f *flakyTransport) Call(ctx context.Context, server int, msg []byte) ([]byte, error) {
	if f.left > 0 {
		f.left--
		return nil, errors.New("not ready")
	}
	return f.inner.Call(ctx, server, msg)
}

// TestBootstrapRetries: NewClient must ride out a briefly-unready server 0
// through the retry policy instead of failing cluster startup.
func TestBootstrapRetries(t *testing.T) {
	g := testGraph(t)
	part := HashPartitioner{N: 1}
	inner := DirectTransport{Servers: []*Server{NewServer(g, part, 0)}}

	client, err := NewClient(&flakyTransport{inner: inner, left: 2}, part, -1)
	if err != nil {
		t.Fatalf("bootstrap did not retry past a transient failure: %v", err)
	}
	if client.NumNodes() != g.NumNodes() {
		t.Fatal("meta wrong after retried bootstrap")
	}
	if snap := client.Res.Snapshot(); snap.Retries < 2 {
		t.Fatalf("bootstrap retries not counted: %+v", snap)
	}
}

// TestBootstrapHonorsContext: a dead cluster must fail NewClientContext by
// the caller's deadline, not hang behind bare retries.
func TestBootstrapHonorsContext(t *testing.T) {
	part := HashPartitioner{N: 1}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := NewClientContext(ctx, &flakyTransport{left: 1 << 30}, part, -1)
	if err == nil {
		t.Fatal("dead cluster bootstrapped")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("bootstrap ignored its deadline for %v", elapsed)
	}
}

// TestPartialRecoversAfterRevive: a lost shard's placeholders are served
// only while it is lost — after the shard revives, lookups see real data,
// not the empty list / zero vector.
func TestPartialRecoversAfterRevive(t *testing.T) {
	g := testGraph(t)
	const partitions, dead = 2, 1
	ft, client := buildChaosCluster(t, g, partitions, 1, ResilienceConfig{
		Retry:          RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Microsecond, MaxBackoff: time.Microsecond},
		Breaker:        BreakerConfig{Threshold: 1000, OpenFor: time.Minute}, // keep probing: the revive must be seen at once
		PartialResults: true,
	})

	part := HashPartitioner{N: partitions}
	var victim graph.NodeID
	for v := graph.NodeID(0); ; v++ {
		if part.Owner(v) == dead && g.Degree(v) > 0 {
			victim = v
			break
		}
	}

	ft.KillServer(dead)
	ids := []graph.NodeID{victim}
	lists, err := getNeighbors(client, ids)
	if _, ok := AsPartial(err); !ok {
		t.Fatalf("want partial error, got %v", err)
	}
	if len(lists[0]) != 0 {
		t.Fatal("dead shard returned neighbors")
	}
	if _, err := getAttrs(client, ids); err == nil {
		t.Fatal("dead shard attrs fetch reported success")
	}

	ft.ReviveServer(dead)
	lists, err = getNeighbors(client, ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(lists[0]) != g.Degree(victim) {
		t.Fatalf("revived shard served a placeholder: %d neighbors, want %d", len(lists[0]), g.Degree(victim))
	}
	attrs, err := getAttrs(client, ids)
	if err != nil {
		t.Fatal(err)
	}
	want := g.Attr(nil, victim)
	for i := range want {
		if attrs[i] != want[i] {
			t.Fatal("revived shard served a zero vector")
		}
	}
}

// TestClientWithoutPolicyFailsFast: no resilience option means the
// failFast policy — one transport call, no retries — so latency-sensitive
// callers keep their old behavior.
func TestClientWithoutPolicyFailsFast(t *testing.T) {
	g := testGraph(t)
	part := HashPartitioner{N: 1}
	ft := NewFaultyTransport(DirectTransport{Servers: []*Server{NewServer(g, part, 0)}}, 1)
	client, err := NewClient(ft, part, -1)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := ft.Counts()
	ft.KillServer(0)
	if _, err := getNeighbors(client, []graph.NodeID{0}); err == nil {
		t.Fatal("dead server not reported")
	}
	after, _ := ft.Counts()
	if after-before != 1 {
		t.Fatalf("fail-fast path made %d transport calls, want 1", after-before)
	}
}

// TestResilienceStatsSource: the "cluster.resilience" layer must expose
// its counters and breaker gauges through the stats registry.
func TestResilienceStatsSource(t *testing.T) {
	g := testGraph(t)
	ft, client := buildChaosCluster(t, g, 2, 1, ResilienceConfig{
		Retry:   RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Microsecond, MaxBackoff: time.Microsecond},
		Breaker: BreakerConfig{Threshold: 1, OpenFor: time.Minute},
	})
	ft.KillServer(0)
	_, _ = getNeighbors(client, []graph.NodeID{0, 1, 2, 3})

	snap := client.Res.StatsSnapshot()
	if snap.Layer != "cluster.resilience" {
		t.Fatalf("layer %q", snap.Layer)
	}
	metrics := make(map[string]float64, len(snap.Metrics))
	for _, m := range snap.Metrics {
		metrics[m.Name] = m.Value
	}
	for _, name := range []string{"retries", "failovers", "breaker_opens", "breaker_rejects", "shard_errors", "breakers_open"} {
		if _, ok := metrics[name]; !ok {
			t.Fatalf("metric %q missing from %v", name, snap.Metrics)
		}
	}
	if metrics["breaker_opens"] < 1 || metrics["breakers_open"] < 1 {
		t.Fatalf("dead endpoint not reflected in gauges: %v", metrics)
	}
}
