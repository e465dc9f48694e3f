package pipeline

import (
	"context"
	"errors"
	"reflect"
	"runtime/debug"
	"sort"
	"sync"
	"testing"
	"time"

	"lsdgnn/internal/cluster"
	"lsdgnn/internal/graph"
	"lsdgnn/internal/sampler"
)

var bg = context.Background()

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return graph.Generate(graph.GenConfig{NumNodes: 1500, AvgDegree: 7, AttrLen: 6, Seed: 1, PowerLaw: true})
}

func testRoots(n int) []graph.NodeID {
	roots := make([]graph.NodeID, n)
	for i := range roots {
		roots[i] = graph.NodeID(i * 37 % 1500)
	}
	return roots
}

func testCfg() sampler.Config {
	return sampler.Config{
		Fanouts:      []int{3, 2},
		NegativeRate: 2,
		Method:       sampler.Streaming,
		FetchAttrs:   true,
		Seed:         99,
	}
}

func sameResult(t *testing.T, label string, got, want *sampler.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Roots, want.Roots) {
		t.Fatalf("%s: roots differ", label)
	}
	if !reflect.DeepEqual(got.Hops, want.Hops) {
		t.Fatalf("%s: hops differ", label)
	}
	if !reflect.DeepEqual(got.Negatives, want.Negatives) {
		t.Fatalf("%s: negatives differ", label)
	}
	if !reflect.DeepEqual(got.Attrs, want.Attrs) {
		t.Fatalf("%s: attrs differ", label)
	}
	if got.Cycles != want.Cycles {
		t.Fatalf("%s: cycles %d != %d", label, got.Cycles, want.Cycles)
	}
}

// parityStore is one backend column of the parity table.
type parityStore struct {
	name  string
	store sampler.Store
}

func parityStores(t *testing.T, g *graph.Graph) []parityStore {
	t.Helper()
	part := cluster.HashPartitioner{N: 3}
	dial := func(opts ...cluster.ClientOption) *cluster.Client {
		servers := []*cluster.Server{
			cluster.NewServer(g, part, 0), cluster.NewServer(g, part, 1), cluster.NewServer(g, part, 2),
		}
		c, err := cluster.NewClientContext(bg, cluster.DirectTransport{Servers: servers}, part, -1, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// One wire path: packed-client is built through the deprecated
	// cluster.WithPacking shim, which must select nothing, and leaves with it.
	plain, packed := dial(), dial(cluster.WithPacking(cluster.PackingConfig{}))
	return []parityStore{
		{"local", sampler.LocalStore{G: g}},
		{"plain-client", plain},
		{"packed-client", packed},
	}
}

// TestPipelineDeterminism is the parity table: every execution path over
// every backend, for both sampling methods, weighted and not, returns
// Roots / Hops / Negatives / Attrs / Cycles identical to the reference
// sampler over the local graph under the same config. Executor rows match
// whatever the window. "-streams" rows make one call on a fresh Sampler;
// "-shared" rows make the second call on an instance that already sampled
// other roots, which must not move a draw (no generator state carries
// over).
func TestPipelineDeterminism(t *testing.T) {
	g := testGraph(t)
	roots := testRoots(64)
	local := sampler.LocalStore{G: g}

	type path struct {
		name string
		run  func(s parityStore, cfg sampler.Config) (*sampler.Result, error)
	}
	executor := func(window int) func(parityStore, sampler.Config) (*sampler.Result, error) {
		return func(s parityStore, cfg sampler.Config) (*sampler.Result, error) {
			return New(s.store, cfg, Config{Window: window}).Sample(bg, roots)
		}
	}
	syncSampler := func(calls int) func(parityStore, sampler.Config) (*sampler.Result, error) {
		return func(s parityStore, cfg sampler.Config) (*sampler.Result, error) {
			sm := sampler.New(s.store, cfg)
			if calls > 1 {
				if _, err := sm.Sample(bg, testRoots(5)); err != nil {
					return nil, err
				}
			}
			return sm.Sample(bg, roots)
		}
	}
	paths := []path{
		{"executor-w1", executor(1)},
		{"executor-w16", executor(16)},
		{"executor-default", executor(0)},
		{"sampler.Sample-streams", syncSampler(1)},
		{"sampler.Sample-shared", syncSampler(2)},
	}
	weights := []struct {
		name string
		fn   sampler.WeightFunc
	}{{"uniform", nil}, {"degree", sampler.DegreeWeight(local)}}

	for _, s := range parityStores(t, g) {
		for _, method := range []sampler.Method{sampler.Reservoir, sampler.Streaming} {
			for _, w := range weights {
				for _, p := range paths {
					cfg := testCfg()
					cfg.Method, cfg.WeightFn = method, w.fn
					t.Run(s.name+"/"+method.String()+"/"+w.name+"/"+p.name, func(t *testing.T) {
						got, err := p.run(s, cfg)
						if err != nil {
							t.Fatal(err)
						}
						ref, err := sampler.New(local, cfg).Sample(bg, roots)
						if err != nil {
							t.Fatal(err)
						}
						sameResult(t, "parity", got, ref)
						got.Release()
						ref.Release()
					})
				}
			}
		}
	}
}

// gateStore parks every fetch of one kind until open is closed,
// announcing each arrival on entered (dropped once its buffer is full).
type gateStore struct {
	sampler.Store
	attrs   bool // gate AttrsBatch rather than NeighborsBatch
	entered chan struct{}
	open    chan struct{}
}

func newGateStore(st sampler.Store, attrs bool) *gateStore {
	return &gateStore{Store: st, attrs: attrs, entered: make(chan struct{}, 64), open: make(chan struct{})}
}

func (s *gateStore) wait(ctx context.Context) error {
	select {
	case s.entered <- struct{}{}:
	default:
	}
	select {
	case <-s.open:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *gateStore) NeighborsBatch(ctx context.Context, dst [][]graph.NodeID, vs []graph.NodeID) error {
	if !s.attrs {
		if err := s.wait(ctx); err != nil {
			return err
		}
	}
	return s.Store.NeighborsBatch(ctx, dst, vs)
}

func (s *gateStore) AttrsBatch(ctx context.Context, dst []float32, vs []graph.NodeID) error {
	if s.attrs {
		if err := s.wait(ctx); err != nil {
			return err
		}
	}
	return s.Store.AttrsBatch(ctx, dst, vs)
}

// awaitStalls blocks until n fetches have stalled on ex's window.
func awaitStalls(t *testing.T, ex *Executor, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for ex.Stats().WindowStalls() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d fetches stalled on the window", ex.Stats().WindowStalls(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestPipelineWindowExhaustion: four concurrent batches through a window
// smaller than their combined demand. Each batch's attribute gather (192
// IDs) fits the 256-slot window alone but no two fit together, so while
// the first is parked in the store the other three must stall; the window
// bound holds throughout and every result is exact.
func TestPipelineWindowExhaustion(t *testing.T) {
	g := testGraph(t)
	cfg := testCfg()
	const window, callers = 256, 4
	gs := newGateStore(sampler.LocalStore{G: g}, true)
	ex := New(gs, cfg, Config{Window: window})

	all := testRoots(16 * callers)
	results := make([]*sampler.Result, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c], errs[c] = ex.Sample(bg, all[c*16:(c+1)*16])
		}(c)
	}
	<-gs.entered
	awaitStalls(t, ex, callers-1)
	close(gs.open)
	wg.Wait()

	if peak := ex.Stats().InflightPeak(); peak > window {
		t.Fatalf("inflight peak %d exceeded window %d", peak, window)
	}
	for c := 0; c < callers; c++ {
		if errs[c] != nil {
			t.Fatal(errs[c])
		}
		ref, err := sampler.New(sampler.LocalStore{G: g}, cfg).Sample(bg, all[c*16:(c+1)*16])
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "exhausted-window", results[c], ref)
	}
}

// TestPipelineWindowAdmitsInArrivalOrder: a fetch as wide as the window
// needs it empty, so if newcomers that fit could barge past it a steady
// stream of small fetches from other batches would starve it. Admission is
// first come, first served: a small fetch that would fit still queues
// behind an earlier wide one.
func TestPipelineWindowAdmitsInArrivalOrder(t *testing.T) {
	g := testGraph(t)
	cfg := testCfg()
	gs := newGateStore(sampler.LocalStore{G: g}, false)
	ex := New(gs, cfg, Config{Window: 8})
	var wg sync.WaitGroup
	sample := func(roots []graph.NodeID) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := ex.Sample(bg, roots)
			if err != nil {
				t.Error(err)
				return
			}
			res.Release()
		}()
	}
	sample(testRoots(4)) // parks in the store holding 4 of 8 slots
	<-gs.entered
	sample(testRoots(8)) // as wide as the window: must wait for it to drain
	awaitStalls(t, ex, 1)
	sample(testRoots(4)) // would fit the 4 free slots, but arrived later
	awaitStalls(t, ex, 2)
	if got := ex.Stats().Inflight(); got != 4 {
		t.Fatalf("a later 4-ID fetch barged past the queued 8-ID one: Inflight() = %d, want 4", got)
	}
	close(gs.open)
	wg.Wait()

	// Liveness under a steady stream: three callers keep small fetches in
	// flight back to back (the store holds each for 100µs) while one batch
	// whose every fetch clamps to the whole window must still finish.
	slow := slowStore{sampler.LocalStore{G: g}}
	ex = New(slow, cfg, Config{Window: 8})
	stop := make(chan struct{})
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := ex.Sample(bg, testRoots(3)[c:c+1])
				if err != nil {
					t.Error(err)
					return
				}
				res.Release()
			}
		}(c)
	}
	ctx, cancel := context.WithTimeout(bg, 10*time.Second)
	defer cancel()
	res, err := ex.Sample(ctx, testRoots(16))
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("wide batch starved behind a stream of small ones: %v", err)
	}
	ref, _ := sampler.New(sampler.LocalStore{G: g}, cfg).Sample(bg, testRoots(16))
	sameResult(t, "wide-among-small", res, ref)
}

// slowStore holds every fetch for 100µs, so concurrent callers overlap.
type slowStore struct{ sampler.Store }

func (s slowStore) NeighborsBatch(ctx context.Context, dst [][]graph.NodeID, vs []graph.NodeID) error {
	time.Sleep(100 * time.Microsecond)
	return s.Store.NeighborsBatch(ctx, dst, vs)
}

func (s slowStore) AttrsBatch(ctx context.Context, dst []float32, vs []graph.NodeID) error {
	time.Sleep(100 * time.Microsecond)
	return s.Store.AttrsBatch(ctx, dst, vs)
}

// TestPipelineSharedGauge: the in-flight gauge — the gateway's pressure
// input — is the executor's fill, the sum over its concurrent batches.
func TestPipelineSharedGauge(t *testing.T) {
	g := testGraph(t)
	const window = 256
	gs := newGateStore(sampler.LocalStore{G: g}, false)
	ex := New(gs, testCfg(), Config{Window: window})

	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res, err := ex.Sample(bg, testRoots(16)[c*8:(c+1)*8])
			if err != nil {
				t.Error(err)
				return
			}
			res.Release()
		}(c)
	}
	// Both batches are parked in their hop-0 fetch of 8 IDs each.
	<-gs.entered
	<-gs.entered
	if got := ex.Stats().Inflight(); got != 16 {
		t.Errorf("two held 8-ID fetches: Inflight() = %d, want 16", got)
	}
	if got, want := ex.Occupancy(), 16.0/window; got != want {
		t.Errorf("Occupancy() = %v, want %v", got, want)
	}
	close(gs.open)
	wg.Wait()
	if peak := ex.Stats().InflightPeak(); peak > window {
		t.Errorf("inflight peak %d exceeded window %d with no fetch wider than it", peak, window)
	}
	if ex.Stats().Inflight() != 0 || ex.Occupancy() != 0 {
		t.Errorf("idle executor reports Inflight() %d, Occupancy() %v", ex.Stats().Inflight(), ex.Occupancy())
	}
}

// TestPipelineCancellation: a context that dies — inside a store fetch or
// while the caller waits on the window — aborts the batch with ctx.Err()
// and a nil result, and leaves the window as it found it.
func TestPipelineCancellation(t *testing.T) {
	g := testGraph(t)

	// Deadline inside a fetch: the gate never opens, so the store returns
	// only when ctx expires.
	ex := New(newGateStore(sampler.LocalStore{G: g}, false), testCfg(), Config{Window: 4})
	ctx, cancel := context.WithTimeout(bg, 5*time.Millisecond)
	defer cancel()
	res, err := ex.Sample(ctx, testRoots(64))
	if !errors.Is(err, context.DeadlineExceeded) || res != nil {
		t.Fatalf("expired batch: result returned = %v, err = %v; want (nil, deadline exceeded)", res != nil, err)
	}

	// Cancelled on the window: batch A holds all 8 slots inside the store,
	// batch B stalls behind it and is cancelled there.
	gs := newGateStore(sampler.LocalStore{G: g}, false)
	ex = New(gs, testCfg(), Config{Window: 8})
	aDone := make(chan error, 1)
	go func() {
		res, err := ex.Sample(bg, testRoots(8))
		if err == nil {
			res.Release()
		}
		aDone <- err
	}()
	<-gs.entered
	bctx, bcancel := context.WithCancel(bg)
	bDone := make(chan error, 1)
	go func() {
		res, err := ex.Sample(bctx, testRoots(8))
		if res != nil {
			err = errors.New("cancelled batch returned a result")
		}
		bDone <- err
	}()
	awaitStalls(t, ex, 1)
	bcancel()
	if err := <-bDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("batch cancelled on the window returned %v", err)
	}
	close(gs.open)
	if err := <-aDone; err != nil {
		t.Fatalf("batch holding the window failed after its neighbour was cancelled: %v", err)
	}
	if got := ex.Stats().Inflight(); got != 0 {
		t.Fatalf("window holds %d slots after both batches returned", got)
	}
}

// lostVertices is a degrading store error: it says which vertices the
// fetch lost, the contract a lost shard exhibits through the cluster
// client.
type lostVertices map[graph.NodeID]bool

func (l lostVertices) Error() string            { return "faultyStore: poisoned vertices lost" }
func (l lostVertices) Lost(v graph.NodeID) bool { return l[v] }

// faultyStore loses every poisoned vertex a fetch touches, leaving the
// outputs layout-complete.
type faultyStore struct {
	sampler.Store
	poison lostVertices
}

func (s *faultyStore) NeighborsBatch(ctx context.Context, dst [][]graph.NodeID, vs []graph.NodeID) error {
	if err := s.Store.NeighborsBatch(ctx, dst, vs); err != nil {
		return err
	}
	var lost error
	for i, v := range vs {
		if s.poison[v] {
			dst[i], lost = nil, s.poison
		}
	}
	return lost
}

func (s *faultyStore) AttrsBatch(ctx context.Context, dst []float32, vs []graph.NodeID) error {
	if err := s.Store.AttrsBatch(ctx, dst, vs); err != nil {
		return err
	}
	al := s.Store.AttrLen()
	var lost error
	for i, v := range vs {
		if s.poison[v] {
			clear(dst[i*al : (i+1)*al])
			lost = s.poison
		}
	}
	return lost
}

// TestPipelinePartialDegradesOnlyFailedRoots: lost vertices degrade
// exactly the roots that asked for them — no more (precision), no fewer —
// reported through PartialError, while every other root retires
// byte-identical to the fault-free reference.
func TestPipelinePartialDegradesOnlyFailedRoots(t *testing.T) {
	g := testGraph(t)
	cfg := testCfg()
	roots := testRoots(32)

	ref, err := sampler.New(sampler.LocalStore{G: g}, cfg).Sample(bg, roots)
	if err != nil {
		t.Fatal(err)
	}

	// One poisoned root, one vertex first met at hop 2 of another root.
	poison := lostVertices{roots[5]: true, ref.Hops[1][17*6+4]: true}
	ex := New(&faultyStore{Store: sampler.LocalStore{G: g}, poison: poison}, cfg, Config{Window: 64})
	got, err := ex.Sample(bg, roots)
	pe, ok := sampler.AsPartial(err)
	if !ok {
		t.Fatalf("want PartialError, got %v", err)
	}
	degraded := map[int]bool{}
	for _, re := range pe.Roots {
		if degraded[re.Index] || re.Root != roots[re.Index] || !errors.As(re.Err, &lostVertices{}) {
			t.Fatalf("malformed or repeated RootError %+v", re)
		}
		degraded[re.Index] = true
	}
	if ex.Stats().DegradedRoots() != int64(len(pe.Roots)) {
		t.Fatalf("degraded_roots = %d for %d reported roots", ex.Stats().DegradedRoots(), len(pe.Roots))
	}

	// The result stays layout-complete...
	if len(got.Hops[0]) != len(ref.Hops[0]) || len(got.Hops[1]) != len(ref.Hops[1]) || len(got.Attrs) != len(ref.Attrs) {
		t.Fatal("degraded result is not layout-complete")
	}
	// ...the reported set is exactly the roots that asked for a poisoned
	// vertex (as a frontier entry of either hop or an attribute slot)...
	w0, w1, nr := 3, 6, cfg.NegativeRate
	touches := func(vs []graph.NodeID) bool {
		for _, v := range vs {
			if poison[v] {
				return true
			}
		}
		return false
	}
	for r := range roots {
		asked := touches(roots[r:r+1]) || touches(got.Hops[0][r*w0:(r+1)*w0]) ||
			touches(got.Hops[1][r*w1:(r+1)*w1]) || touches(got.Negatives[r*nr:(r+1)*nr])
		if asked != degraded[r] {
			t.Fatalf("root %d: asked for a lost vertex = %v, reported degraded = %v", r, asked, degraded[r])
		}
	}
	if !degraded[5] || !degraded[17] || len(degraded) == len(roots) {
		t.Fatalf("implausible degraded set %v", degraded)
	}
	// ...and every clean root is exact.
	al := g.AttrLen()
	for r := range roots {
		if degraded[r] {
			continue
		}
		if !reflect.DeepEqual(got.Hops[0][r*w0:(r+1)*w0], ref.Hops[0][r*w0:(r+1)*w0]) ||
			!reflect.DeepEqual(got.Hops[1][r*w1:(r+1)*w1], ref.Hops[1][r*w1:(r+1)*w1]) {
			t.Fatalf("clean root %d sampled differently under faults", r)
		}
		if !reflect.DeepEqual(got.Attrs[r*al:(r+1)*al], ref.Attrs[r*al:(r+1)*al]) {
			t.Fatalf("clean root %d attrs differ", r)
		}
	}
}

// TestPipelineAllocsDoNotGrowWithRoots: a batch costs a fixed number of
// allocations whatever its size — no goroutine, closure or frontier slice
// per root. Collection is off while counting (a GC empties the buffer
// pools); the margin absorbs the pool drops the race detector injects.
func TestPipelineAllocsDoNotGrowWithRoots(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ex := New(sampler.LocalStore{G: testGraph(t)}, testCfg(), Config{})
	allocs := func(n int) float64 {
		roots := testRoots(n)
		return testing.AllocsPerRun(50, func() {
			res, err := ex.Sample(bg, roots)
			if err != nil {
				t.Fatal(err)
			}
			res.Release()
		})
	}
	if a8, a64 := allocs(8), allocs(64); a64 > a8+16 {
		t.Fatalf("allocations grow with batch size: %.0f for 8 roots, %.0f for 64", a8, a64)
	}
}

// TestChaosPipelineOverFaultyCluster: the executor rides the resilient
// client mid-chaos — transient injected faults with retries underneath,
// a murdered shard with PartialResults degradation — and every root the
// cluster could serve retires byte-identical to the pristine reference.
// The shape (six shards, fanouts 2×2, one negative: eight vertices a root)
// leaves about a quarter of the roots clear of any one shard, so the
// degraded set is a non-empty proper subset by checked precondition.
func TestChaosPipelineOverFaultyCluster(t *testing.T) {
	g := testGraph(t)
	cfg := testCfg()
	cfg.Fanouts, cfg.NegativeRate = []int{2, 2}, 1
	roots := testRoots(40)
	part := cluster.HashPartitioner{N: 6}
	const killed = 1

	build := func() (*cluster.FaultyTransport, *cluster.Client) { return faultyCluster(t, g, part, true) }

	_, pristine := build()
	ref, err := New(pristine, cfg, Config{Window: 64}).Sample(bg, roots)
	if err != nil {
		t.Fatal(err)
	}
	// The roots that must degrade: those whose reference subtree asks for
	// any vertex the killed shard owns, as a frontier entry or an attribute
	// slot. Up to its first such vertex a root draws what the reference
	// drew, so it asks for that vertex under faults too; a root clear of
	// the shard never notices it.
	w0, w1 := 2, 4
	want := map[int]bool{}
	for r := range roots {
		for _, vs := range [][]graph.NodeID{roots[r : r+1], ref.Hops[0][r*w0 : (r+1)*w0], ref.Hops[1][r*w1 : (r+1)*w1], ref.Negatives[r : r+1]} {
			for _, v := range vs {
				if part.Owner(v) == killed {
					want[r] = true
				}
			}
		}
	}
	if len(want) == 0 || len(want) == len(roots) {
		t.Fatalf("precondition: %d of %d roots touch shard %d; the shape must leave a proper subset", len(want), len(roots), killed)
	}

	// Phase 1: transient faults only — retries absorb them, so the batch
	// must come back complete and exact.
	ft, client := build()
	ft.SetFaults(cluster.FaultSpec{ErrRate: 0.15})
	got, err := New(client, cfg, Config{Window: 64}).Sample(bg, roots)
	if err != nil {
		if _, ok := sampler.AsPartial(err); !ok {
			t.Fatalf("chaos batch failed outright: %v", err)
		}
	} else {
		sameResult(t, "transient-chaos", got, ref)
	}

	// Phase 2: kill a shard outright. Exactly the roots whose subtrees touch
	// it degrade; everyone else must still match the reference exactly.
	ft2, client2 := build()
	ft2.KillServer(killed)
	got2, err2 := New(client2, cfg, Config{Window: 64}).Sample(bg, roots)
	pe, ok := sampler.AsPartial(err2)
	if !ok {
		t.Fatalf("want PartialError, got %v", err2)
	}
	degraded := map[int]bool{}
	for _, re := range pe.Roots {
		degraded[re.Index] = true
	}
	if !reflect.DeepEqual(degraded, want) {
		t.Fatalf("degraded roots %v, want exactly those touching shard %d: %v", degraded, killed, want)
	}
	al := g.AttrLen()
	for r := range roots {
		if degraded[r] {
			continue
		}
		if !reflect.DeepEqual(got2.Hops[0][r*w0:(r+1)*w0], ref.Hops[0][r*w0:(r+1)*w0]) ||
			!reflect.DeepEqual(got2.Hops[1][r*w1:(r+1)*w1], ref.Hops[1][r*w1:(r+1)*w1]) ||
			!reflect.DeepEqual(got2.Attrs[r*al:(r+1)*al], ref.Attrs[r*al:(r+1)*al]) {
			t.Fatalf("clean root %d sampled differently during shard loss", r)
		}
	}
}

// faultyCluster builds one in-proc shard server per partition behind a
// fault-injecting transport and a resilient client, degrading
// (PartialResults) or fail-closed.
func faultyCluster(t *testing.T, g *graph.Graph, part cluster.Partitioner, partial bool) (*cluster.FaultyTransport, *cluster.Client) {
	t.Helper()
	servers := make([]*cluster.Server, part.Servers())
	for i := range servers {
		servers[i] = cluster.NewServer(g, part, i)
	}
	ft := cluster.NewFaultyTransport(cluster.DirectTransport{Servers: servers}, 7)
	client, err := cluster.NewClientContext(bg, ft, part, -1, cluster.WithResilience(cluster.ResilienceConfig{
		Retry:          cluster.RetryPolicy{MaxAttempts: 6, BaseBackoff: time.Microsecond, MaxBackoff: 10 * time.Microsecond},
		Breaker:        cluster.BreakerConfig{Threshold: 1 << 30, OpenFor: time.Minute},
		PartialResults: partial,
	}))
	if err != nil {
		t.Fatal(err)
	}
	return ft, client
}

// TestPipelineFailClosedAborts: a store error that does not say what it
// lost is not served as data. Over a fail-closed client with a dead shard
// the executor (and the synchronous sampler) return (nil, err), and err is
// a PartialError of neither kind.
func TestPipelineFailClosedAborts(t *testing.T) {
	g := testGraph(t)
	ft, client := faultyCluster(t, g, cluster.HashPartitioner{N: 3}, false)
	ft.KillServer(1)
	ex := New(client, testCfg(), Config{})
	for name, sample := range map[string]func() (*sampler.Result, error){
		"executor": func() (*sampler.Result, error) { return ex.Sample(bg, testRoots(40)) },
		"sampler":  func() (*sampler.Result, error) { return sampler.New(client, testCfg()).Sample(bg, testRoots(40)) },
	} {
		res, err := sample()
		if res != nil || err == nil {
			t.Fatalf("%s over a fail-closed client with a dead shard: result returned = %v, err = %v; want (nil, error)", name, res != nil, err)
		}
		if _, ok := sampler.AsPartial(err); ok {
			t.Fatalf("%s: fail-closed loss reported as per-root degradation: %v", name, err)
		}
		if _, ok := cluster.AsPartial(err); ok {
			t.Fatalf("%s: fail-closed loss reported as shard degradation: %v", name, err)
		}
	}
	if errs, ok := ex.stats.batchErrors.Value(), ex.stats.batches.Value(); errs != 1 || ok != 0 {
		t.Fatalf("aborted batch counted as batches=%d batch_errors=%d", ok, errs)
	}
}

// TestClientSampleBatchNamesEveryLostShard: a batch sampled over the
// client names each dead shard through the kernel's degrade error — every
// lost shard appears in some fetch's *cluster.PartialError among its Errs.
func TestClientSampleBatchNamesEveryLostShard(t *testing.T) {
	g := testGraph(t)
	ft, client := faultyCluster(t, g, cluster.HashPartitioner{N: 3}, true)
	ft.KillServer(0)
	ft.KillServer(2)
	res, err := New(client, testCfg(), Config{}).Sample(bg, testRoots(40))
	pe, ok := sampler.AsPartial(err)
	if !ok || res == nil {
		t.Fatalf("want a degraded result: result returned = %v, err = %v", res != nil, err)
	}
	seen := map[int]bool{}
	var lost []int
	for _, e := range pe.Errs {
		cpe, ok := cluster.AsPartial(e)
		if !ok {
			t.Fatalf("fetch error %v names no shard", e)
		}
		for _, s := range cpe.Shards {
			if !seen[s.Server] {
				seen[s.Server] = true
				lost = append(lost, s.Server)
			}
		}
	}
	sort.Ints(lost)
	if !reflect.DeepEqual(lost, []int{0, 2}) {
		t.Fatalf("lost shards reported as %v, want [0 2]", lost)
	}
}

// TestPipelineStatsZeroValue: an idle Stats must report the full metric
// schema at zero — the server pre-registers one so the Prometheus
// namespace is stable before any traffic.
func TestPipelineStatsZeroValue(t *testing.T) {
	var s Stats
	snap := s.StatsSnapshot()
	if snap.Layer != "pipeline" {
		t.Fatalf("layer %q", snap.Layer)
	}
	want := []string{
		"inflight", "inflight_peak", "issued_tasks", "issued_requests",
		"retired_tasks", "retired_requests", "window_full_stalls",
		"degraded_roots", "batches", "batch_errors",
	}
	for _, name := range want {
		v, ok := snap.Get(name)
		if !ok {
			t.Fatalf("metric %s missing from idle snapshot", name)
		}
		if v != 0 {
			t.Fatalf("idle metric %s = %v", name, v)
		}
	}
	if len(snap.Hists) != 2 {
		t.Fatalf("idle snapshot carries %d histograms, want 2", len(snap.Hists))
	}
	if snap.Hists[1].Name != "batch_latency_window_10s" {
		t.Fatalf("hists[1] = %q", snap.Hists[1].Name)
	}
}
