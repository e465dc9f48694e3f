package cluster

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"lsdgnn/internal/graph"
)

// buildLayoutCluster assembles servers for every endpoint of a
// UniformLayout(partitions, replicas) plus one spare per entry of
// spares (partition indices, appended after the replica blocks), and a
// resilient client routing by that layout.
func buildLayoutCluster(t *testing.T, g *graph.Graph, partitions, replicas int, spares []int, opts ...ClientOption) ([]*Server, *Client) {
	t.Helper()
	part := HashPartitioner{N: partitions}
	servers := make([]*Server, 0, partitions*replicas+len(spares))
	for r := 0; r < replicas; r++ {
		for p := 0; p < partitions; p++ {
			servers = append(servers, NewServer(g, part, p))
		}
	}
	for _, p := range spares {
		servers = append(servers, NewServer(g, part, p))
	}
	opts = append([]ClientOption{
		WithResilience(ResilienceConfig{Seed: 7}),
		WithLayout(UniformLayout(partitions, replicas)),
	}, opts...)
	client, err := NewClientContext(bg, DirectTransport{Servers: servers}, part, -1, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return servers, client
}

func TestUniformLayoutRejectsBadPartitions(t *testing.T) {
	// partitions < 1 has no sensible layout: the old behavior (an empty
	// map) deferred the crash to the first client fan-out.
	defer func() {
		if recover() == nil {
			t.Fatal("UniformLayout(0, 2) did not panic")
		}
	}()
	UniformLayout(0, 2)
}

func TestLayoutMutators(t *testing.T) {
	l := UniformLayout(2, 2) // p0: {0,2}, p1: {1,3}
	if l.Epoch != 1 {
		t.Fatalf("fresh layout epoch = %d, want 1", l.Epoch)
	}
	if got := l.Routable(0); !slices.Equal(got, []int{0, 2}) {
		t.Fatalf("Routable(0) = %v", got)
	}

	w, err := l.with(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if w.Epoch != 2 || !w.Contains(4) {
		t.Fatalf("with: epoch %d, holds 4: %v", w.Epoch, w.Contains(4))
	}
	if got := w.Routable(0); !slices.Equal(got, []int{0, 2, 4}) {
		t.Fatalf("added endpoint not routed last: %v", got)
	}
	// A listed endpoint cannot be added twice or elsewhere.
	if _, err := w.with(1, 4); err == nil {
		t.Fatal("endpoint added to two partitions")
	}
	if _, err := l.with(2, 9); err == nil {
		t.Fatal("endpoint added to a partition the layout lacks")
	}

	o, err := w.without(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.Routable(0); o.Epoch != 3 || o.Contains(0) || !slices.Equal(got, []int{2, 4}) {
		t.Fatalf("without: epoch %d, Routable(0) = %v", o.Epoch, got)
	}
	// The receivers are untouched (immutability).
	if !slices.Equal(l.Routable(0), []int{0, 2}) || !slices.Equal(w.Routable(0), []int{0, 2, 4}) {
		t.Fatal("mutator modified its receiver")
	}

	// Removing the last endpoint would blackhole the shard.
	solo := UniformLayout(2, 1)
	if _, err := solo.without(0, 0); err == nil || !strings.Contains(err.Error(), "last endpoint") {
		t.Fatalf("removed the last endpoint: %v", err)
	}
	if _, err := solo.without(0, 9); err == nil {
		t.Fatal("removed an endpoint not in the partition")
	}
}

func TestLayoutValidateRejects(t *testing.T) {
	// One endpoint must hold exactly one shard.
	bad := &Layout{Epoch: 1, Partitions: [][]int{{0}, {0}}}
	if err := bad.Validate(2); err == nil {
		t.Fatal("endpoint in two partitions validated")
	}
	dup := &Layout{Epoch: 1, Partitions: [][]int{{0, 0}}}
	if err := dup.Validate(1); err == nil {
		t.Fatal("duplicate endpoint validated")
	}
	empty := &Layout{Epoch: 1, Partitions: [][]int{{}}}
	if err := empty.Validate(1); err == nil {
		t.Fatal("partition with no endpoint validated")
	}
	if _, err := NewLayout(0, nil); err == nil {
		t.Fatal("layout over zero partitions")
	}
}

func TestApplyLayoutEpochMonotonicAndStats(t *testing.T) {
	g := testGraph(t)
	_, client := buildLayoutCluster(t, g, 2, 2, nil)
	if e := client.Layout().Epoch; e != 1 {
		t.Fatalf("initial epoch = %d", e)
	}

	next, err := client.Layout().without(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.ApplyLayout(next); err != nil {
		t.Fatal(err)
	}
	if e := client.Layout().Epoch; e != 2 {
		t.Fatalf("epoch after swap = %d", e)
	}
	// Same (now stale) epoch must be refused — so must anything older.
	if err := client.ApplyLayout(next); err == nil {
		t.Fatal("stale epoch applied")
	}
	stale := UniformLayout(2, 2) // epoch 1
	if err := client.ApplyLayout(stale); err == nil {
		t.Fatal("older epoch applied")
	}
	snap := client.Lay.Snapshot()
	if snap.Swaps != 1 {
		t.Fatalf("swaps = %d, want 1", snap.Swaps)
	}
	if client.Lay.Epoch() != 2 {
		t.Fatalf("epoch gauge = %d", client.Lay.Epoch())
	}
	// Layout hands out a copy: editing it leaves the live table alone.
	client.Layout().Partitions[0][0] = 99
	if got := client.Layout().Routable(0); !slices.Equal(got, []int{0}) {
		t.Fatalf("editing Layout()'s result changed routing: %v", got)
	}
}

// TestBreakerPrunedOnLayoutSwap is the breaker/epoch interaction bar: a
// breaker opened — or holding its half-open probe slot — against an
// endpoint that leaves the layout must not survive into the new epoch. A
// re-admitted endpoint starts from a fresh closed breaker.
func TestBreakerPrunedOnLayoutSwap(t *testing.T) {
	g := testGraph(t)
	_, client := buildLayoutCluster(t, g, 2, 2, nil, WithResilience(ResilienceConfig{
		Breaker: BreakerConfig{Threshold: 2, OpenFor: time.Millisecond},
		Seed:    7,
	}))
	r := client.res

	// Open endpoint 2's breaker, then park it holding the half-open probe
	// slot — the state that, if leaked, blacklists the endpoint forever.
	br := r.breaker(2)
	br.onFailure()
	br.onFailure()
	if br.State() != BreakerOpen {
		t.Fatalf("breaker state = %v, want open", br.State())
	}
	time.Sleep(2 * time.Millisecond)
	if ok, probe := br.Allow(); !ok || !probe {
		t.Fatalf("Allow() = %v, %v — expected the half-open probe slot", ok, probe)
	}
	if ok, _ := br.Allow(); ok {
		t.Fatal("second probe admitted while the slot is held")
	}

	// Endpoint 2 drains out of the layout with the probe slot still held.
	out, err := client.Layout().without(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.ApplyLayout(out); err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	_, survived := r.breakers[2]
	r.mu.Unlock()
	if survived {
		t.Fatal("departed endpoint's breaker survived the epoch bump")
	}

	// Re-admission: the endpoint comes back with a fresh closed breaker —
	// no inherited open state, no leaked probe slot.
	back, err := client.Layout().with(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.ApplyLayout(back); err != nil {
		t.Fatal(err)
	}
	fresh := r.breaker(2)
	if fresh == br {
		t.Fatal("re-admitted endpoint inherited the old breaker")
	}
	if fresh.State() != BreakerClosed {
		t.Fatalf("fresh breaker state = %v", fresh.State())
	}
	if ok, probe := fresh.Allow(); !ok || probe {
		t.Fatalf("fresh breaker Allow() = %v, %v", ok, probe)
	}
}

// TestStalePassLeavesNoBreaker: a retry pass that resolved its endpoints
// before an epoch swap still tries the one that has since left, and must
// not put that endpoint's breaker back into the map pruneBreakers just
// cleared.
func TestStalePassLeavesNoBreaker(t *testing.T) {
	g := testGraph(t)
	_, client := buildLayoutCluster(t, g, 2, 2, nil, WithResilience(DefaultResilienceConfig()))
	r := client.res
	stale := client.Layout().Routable(0)
	if !slices.Equal(stale, []int{0, 2}) {
		t.Fatalf("partition 0 routes to %v, want [0 2]", stale)
	}
	out, err := client.Layout().without(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.ApplyLayout(out); err != nil {
		t.Fatal(err)
	}
	down := func(context.Context, int, []byte) ([]byte, error) { return nil, errors.New("down") }
	if _, err := r.pass(bg, stale, metaReq, down); err == nil {
		t.Fatal("pass over dead endpoints succeeded")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for ep := range r.breakers {
		if !client.Layout().Contains(ep) {
			t.Fatalf("breaker map holds departed endpoint %d", ep)
		}
	}
	if _, ok := r.breakers[0]; !ok {
		t.Fatal("live endpoint 0 was tried but has no breaker")
	}
}

// gateTransport blocks calls to one endpoint until released, so drains can
// be observed with a request genuinely in flight.
type gateTransport struct {
	Transport
	ep      int
	mu      sync.Mutex
	blocked chan struct{} // closed to release
	waiting chan struct{} // closed once a call is parked
	once    sync.Once
}

func (t *gateTransport) Call(ctx context.Context, server int, msg []byte) ([]byte, error) {
	if server == t.ep {
		t.once.Do(func() { close(t.waiting) })
		select {
		case <-t.blocked:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return t.Transport.Call(ctx, server, msg)
}

// TestDrainReplicaWaitsForInflight: a drain takes the endpoint out of
// routing immediately but must not return until requests already on the
// wire complete.
func TestDrainReplicaWaitsForInflight(t *testing.T) {
	g := testGraph(t)
	part := HashPartitioner{N: 2}
	servers := make([]*Server, 0, 4)
	for r := 0; r < 2; r++ {
		for p := 0; p < 2; p++ {
			servers = append(servers, NewServer(g, part, p))
		}
	}
	gate := &gateTransport{
		Transport: DirectTransport{Servers: servers},
		ep:        2,
		blocked:   make(chan struct{}),
		waiting:   make(chan struct{}),
	}
	client, err := NewClientContext(bg, gate, part, -1,
		WithResilience(ResilienceConfig{Seed: 7}),
		WithLayout(UniformLayout(2, 2)))
	if err != nil {
		t.Fatal(err)
	}

	// Park one request on endpoint 2. The layout must route it there:
	// swap primary order so 2 is preferred for partition 0.
	pref := &Layout{Epoch: client.Layout().Epoch + 1, Partitions: [][]int{{2, 0}, {1, 3}}}
	if err := client.ApplyLayout(pref); err != nil {
		t.Fatal(err)
	}
	reqDone := make(chan error, 1)
	go func() {
		ids := ownedSample(part, 0, g.NumNodes(), 1)
		_, err := getNeighbors(client, ids)
		reqDone <- err
	}()
	<-gate.waiting // the request is now blocked inside endpoint 2's call

	drainDone := make(chan error, 1)
	ctx, cancel := context.WithTimeout(bg, 10*time.Second)
	defer cancel()
	go func() { drainDone <- client.DrainReplica(ctx, 0, 2) }()

	// One swap takes the endpoint out of routing while the in-flight
	// request still holds it; the drain waits for that request.
	deadline := time.After(5 * time.Second)
	for client.Layout().Contains(2) {
		select {
		case <-deadline:
			t.Fatal("endpoint never left the layout")
		case err := <-drainDone:
			t.Fatalf("drain finished with a request in flight: %v", err)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if got := client.Layout().Routable(0); !slices.Equal(got, []int{0}) {
		t.Fatalf("drained endpoint still routable: %v", got)
	}
	select {
	case err := <-drainDone:
		t.Fatalf("drain finished with a request in flight: %v", err)
	case <-time.After(20 * time.Millisecond):
	}

	close(gate.blocked) // release the parked request
	if err := <-reqDone; err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	if client.Layout().Contains(2) {
		t.Fatal("drained endpoint still in layout")
	}
	if snap := client.Lay.Snapshot(); snap.ReplicaDrains != 1 {
		t.Fatalf("replica_drains = %d", snap.ReplicaDrains)
	}
}

// TestAddReplicaParityProbe: an endpoint serving the wrong data must fail
// the admission probe and stay out of the layout.
func TestAddReplicaParityProbe(t *testing.T) {
	g := testGraph(t)
	part := HashPartitioner{N: 2}
	other := graph.Generate(graph.GenConfig{NumNodes: g.NumNodes(), AvgDegree: 3, AttrLen: 6, Seed: 555})
	servers := []*Server{
		NewServer(g, part, 0), NewServer(g, part, 1),
		NewServer(g, part, 0), NewServer(g, part, 1),
		NewServer(other, part, 0), // endpoint 4: right shape, wrong graph
	}
	client, err := NewClientContext(bg, DirectTransport{Servers: servers}, part, -1,
		WithResilience(ResilienceConfig{Retry: RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond}, Seed: 7}),
		WithLayout(UniformLayout(2, 2)))
	if err != nil {
		t.Fatal(err)
	}
	epoch, swaps := client.Layout().Epoch, client.Lay.Snapshot().Swaps
	if err := client.AddReplica(bg, 0, 4); err == nil {
		t.Fatal("endpoint with divergent data admitted")
	}
	if client.Layout().Contains(4) {
		t.Fatal("failed probe left the endpoint in the layout")
	}
	snap := client.Lay.Snapshot()
	if e := client.Layout().Epoch; e != epoch || snap.Swaps != swaps {
		t.Fatalf("failed probe swapped the layout: epoch %d → %d, swaps %d → %d", epoch, e, swaps, snap.Swaps)
	}
	if snap.ProbeFailures != 1 || snap.ReplicaJoins != 0 {
		t.Fatalf("probe stats = %+v", snap)
	}
}

// TestAddReplicaProbeBackoffCapped: the admission probe retries through
// the client's backoff loop, so its waits respect MaxBackoff — a divergent
// spare under a 12-pass policy is refused in tens of milliseconds, not the
// two seconds uncapped doubling sleeps — and its retries are counted.
func TestAddReplicaProbeBackoffCapped(t *testing.T) {
	g := testGraph(t)
	part := HashPartitioner{N: 2}
	other := graph.Generate(graph.GenConfig{NumNodes: g.NumNodes(), AvgDegree: 3, AttrLen: 6, Seed: 555})
	servers := []*Server{
		NewServer(g, part, 0), NewServer(g, part, 1),
		NewServer(g, part, 0), NewServer(g, part, 1),
		NewServer(other, part, 0), // endpoint 4: right shape, wrong graph
	}
	client, err := NewClientContext(bg, DirectTransport{Servers: servers}, part, -1,
		WithResilience(ResilienceConfig{Retry: RetryPolicy{MaxAttempts: 12, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}, Seed: 7}),
		WithLayout(UniformLayout(2, 2)))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := client.AddReplica(bg, 0, 4); err == nil {
		t.Fatal("endpoint with divergent data admitted")
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("12-pass probe capped at 2ms backoff took %v", elapsed)
	}
	if snap := client.Res.Snapshot(); snap.Retries != 11 {
		t.Fatalf("probe retries = %d, want 11", snap.Retries)
	}
}

func TestAddReplicaAdmitsHealthyEndpoint(t *testing.T) {
	g := testGraph(t)
	_, client := buildLayoutCluster(t, g, 2, 2, []int{0}) // endpoint 4 spare for p0
	if err := client.AddReplica(bg, 0, 4); err != nil {
		t.Fatal(err)
	}
	if got := client.Layout().Routable(0); !slices.Equal(got, []int{0, 2, 4}) {
		t.Fatalf("Routable(0) = %v", got)
	}
	if snap := client.Lay.Snapshot(); snap.ReplicaJoins != 1 || snap.ProbeFailures != 0 {
		t.Fatalf("join stats = %+v", snap)
	}
}

func TestHotShardDetector(t *testing.T) {
	g := testGraph(t)
	_, client := buildLayoutCluster(t, g, 2, 2, nil)
	if _, hot := client.HotShard(1.2); hot {
		t.Fatal("cold client reported a hot shard")
	}
	ids := ownedSample(client.part, 1, g.NumNodes(), 4)
	for i := 0; i < 32; i++ {
		if _, err := getNeighbors(client, ids); err != nil {
			t.Fatal(err)
		}
	}
	p, hot := client.HotShard(1.2)
	if !hot || p != 1 {
		t.Fatalf("HotShard = %d, %v — partition 1 took all the traffic", p, hot)
	}
}

func TestLayoutStatsZeroValueSchema(t *testing.T) {
	var s LayoutStats
	snap := s.StatsSnapshot()
	if snap.Layer != "cluster.layout" {
		t.Fatalf("layer = %q", snap.Layer)
	}
	want := []string{"epoch", "swaps", "replica_joins", "replica_drains", "migrations", "probe_failures"}
	if len(snap.Metrics) != len(want) {
		t.Fatalf("metrics = %d, want %d", len(snap.Metrics), len(want))
	}
	for i, m := range snap.Metrics {
		if m.Name != want[i] {
			t.Fatalf("metric %d = %q, want %q", i, m.Name, want[i])
		}
		if m.Value != 0 {
			t.Fatalf("zero-value metric %q = %v", m.Name, m.Value)
		}
	}
}
