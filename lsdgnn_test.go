package lsdgnn

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

func TestPublicAPIQuickstart(t *testing.T) {
	g := GenerateGraph(3000, 10, 32, 1)
	if g.NumNodes() != 3000 || g.AttrLen() != 32 {
		t.Fatal("graph generation through the facade broken")
	}
	sys, err := New("", WithGraph(g), WithServers(4), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	roots := sys.BatchSource(16, 2).Next()
	sw, err := sys.Pipeline.Sample(ctx, roots)
	if err != nil {
		t.Fatal(err)
	}
	hw, stats, err := sys.Sample(ctx, roots)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Attrs) != len(hw.Attrs) {
		t.Fatal("pipelined and accelerated layouts differ")
	}
	if stats.RootsPerSecond <= 0 {
		t.Fatal("no modeled throughput")
	}
}

// TestPublicAPIDeadline is the facade-level acceptance check: a context
// deadline shorter than the injected network delay must surface as
// context.DeadlineExceeded from the sampling route.
func TestPublicAPIDeadline(t *testing.T) {
	g := GenerateGraph(2000, 8, 8, 2)
	sys, err := New("", WithGraph(g), WithSeed(2), WithNetDelay(250*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = sys.Pipeline.Sample(ctx, sys.BatchSource(8, 1).Next())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("deadline not enforced promptly: %v", elapsed)
	}
}

func TestPublicStatsRegistry(t *testing.T) {
	g := GenerateGraph(2000, 8, 8, 3)
	sys, err := New("", WithGraph(g), WithServers(2), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	roots := sys.BatchSource(8, 1).Next()
	if _, err := sys.Pipeline.Sample(ctx, roots); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.Sample(ctx, roots); err != nil {
		t.Fatal(err)
	}
	snaps := sys.StatsRegistry().Collect()
	if len(snaps) < 4 {
		t.Fatalf("registry has %d layers", len(snaps))
	}
}

// TestPublicFunctionalOptions builds the full option surface through New:
// named dataset, replicas, chaos and resilience — then proves a degraded batch surfaces as a typed *PartialError through
// errors.As, the facade's error contract.
func TestPublicFunctionalOptions(t *testing.T) {
	sys, err := New("ss",
		WithServers(4),
		WithSeed(5),
		WithReplicas(2),
		WithFaults(FaultSpec{ErrRate: 0.05}),
		WithResilience(func() ResilienceConfig {
			cfg := DefaultResilienceConfig()
			cfg.PartialResults = true
			return cfg
		}()),
		WithSampling(DefaultSamplerConfig(5)),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := int64(0); i < 8; i++ {
		res, err := sys.Pipeline.Sample(ctx, sys.BatchSource(32, i).Next())
		var pe *PartialError
		if errors.As(err, &pe) {
			if res == nil || len(pe.Shards) == 0 {
				t.Fatal("PartialError without degraded result")
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if sys.Client.Pack.Frames() == 0 {
		t.Fatal("the default client sent no sectioned frames")
	}
}

// TestPublicServerErrorTyped: a deterministic rejection (hostile node ID)
// must come back matchable as *ServerError through the facade aliases.
func TestPublicServerErrorTyped(t *testing.T) {
	g := GenerateGraph(500, 4, 4, 9)
	sys, err := New("", WithGraph(g), WithServers(2), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	err = sys.Client.AttrsBatch(context.Background(), make([]float32, sys.Client.AttrLen()), []NodeID{1 << 40})
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *ServerError", err)
	}
}

func TestPublicDatasets(t *testing.T) {
	ds := Datasets()
	if len(ds) != 6 {
		t.Fatalf("datasets = %d", len(ds))
	}
	if _, err := DatasetByName("ls"); err != nil {
		t.Fatal(err)
	}
	if _, err := DatasetByName("bogus"); err == nil {
		t.Fatal("bogus dataset accepted")
	}
}

func TestPublicEngineConfig(t *testing.T) {
	cfg := DefaultEngineConfig()
	if cfg.Cores != 2 || cfg.ClockHz != 250e6 {
		t.Fatalf("PoC defaults wrong: %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicCostAndFaaS(t *testing.T) {
	m, err := FitCostModel()
	if err != nil {
		t.Fatal(err)
	}
	if m.FPGACoef <= 0 {
		t.Fatal("cost model degenerate")
	}
	ev, err := EvaluateFaaS()
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Rows) != 144 {
		t.Fatalf("DSE rows = %d", len(ev.Rows))
	}
}

func TestSamplingMethodConstants(t *testing.T) {
	if Reservoir == Streaming {
		t.Fatal("method constants collide")
	}
}

func TestPublicHeteroAndDynamic(t *testing.T) {
	h := NewHetero(100, 4)
	rel := GenerateGraph(100, 3, 4, 1)
	if err := h.AddRelation("buys", rel); err != nil {
		t.Fatal(err)
	}
	mp, err := NewMetaPathSampler(h, []string{"buys"}, SamplerConfig{Fanouts: []int{2}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := mp.SampleBatch([]NodeID{1, 2})
	if len(res.Hops[0]) != 4 {
		t.Fatalf("meta-path hop size %d", len(res.Hops[0]))
	}

	d := NewDynamic(GenerateGraph(50, 2, 2, 2))
	if err := d.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if d.DeltaEdges() != 1 {
		t.Fatal("dynamic edge lost")
	}
}

func TestPublicSaveLoad(t *testing.T) {
	g := GenerateGraph(200, 4, 8, 3)
	path := t.TempDir() + "/g.lsdg"
	if err := SaveGraph(g, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() {
		t.Fatal("save/load lost the graph")
	}
}

// TestPublicElasticLayout is the WithLayout quickstart from options.go: a
// 2×2 replicated system with one spare endpoint, a live replica rotation
// (drain one, admit the spare), and byte-identical sampling throughout.
func TestPublicElasticLayout(t *testing.T) {
	g := GenerateGraph(2000, 8, 8, 11)
	static, err := New("", WithGraph(g), WithServers(2), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New("", WithGraph(g), WithServers(2), WithSeed(11),
		WithLayout(UniformLayout(2, 2)),
		WithSpares(0), // endpoint 4: spare holding partition 0
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	roots := sys.BatchSource(16, 3).Next()
	want, err := static.Pipeline.Sample(ctx, roots)
	if err != nil {
		t.Fatal(err)
	}
	before, err := sys.Pipeline.Sample(ctx, roots)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, want) {
		t.Fatal("layout-routed sampling diverged from the static system")
	}

	// Rotate partition 0's second replica out and the spare in.
	if err := sys.Client.DrainReplica(ctx, 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := sys.Client.AddReplica(ctx, 0, 4); err != nil {
		t.Fatal(err)
	}
	after, err := sys.Pipeline.Sample(ctx, roots)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, want) {
		t.Fatal("sampling diverged after the replica rotation")
	}
	if e := sys.Client.Layout().Epoch; e != 3 {
		t.Fatalf("epoch = %d after drain+add, want 3", e)
	}

	// The rotation shows up in the facade's stats registry.
	found := false
	for _, snap := range sys.StatsRegistry().Collect() {
		if snap.Layer != "cluster.layout" {
			continue
		}
		found = true
		for _, m := range snap.Metrics {
			if (m.Name == "replica_drains" || m.Name == "replica_joins") && m.Value != 1 {
				t.Fatalf("%s = %v, want 1", m.Name, m.Value)
			}
		}
	}
	if !found {
		t.Fatal("cluster.layout layer missing from the registry")
	}
}

// TestPublicStore is the WithStore quickstart from options.go: the same
// deployment once from memory and once from a budgeted disk store, with
// byte-identical sampling, the "store" stats layer live in the registry,
// and the persistent directory reopenable by the ingest helpers.
func TestPublicStore(t *testing.T) {
	g := GenerateGraph(2000, 8, 16, 13)
	dir := t.TempDir() + "/store"
	mem, err := New("", WithGraph(g), WithServers(2), WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New("", WithGraph(g), WithServers(2), WithSeed(13),
		WithStore(StoreConfig{Path: dir, MemoryBudget: 1 << 20}),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	roots := sys.BatchSource(16, 4).Next()
	want, err := mem.Pipeline.Sample(ctx, roots)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.Pipeline.Sample(ctx, roots)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("disk-backed sampling diverged from the in-memory system")
	}

	// The storage tier reports itself: cache traffic in the "store" layer.
	var reads float64
	for _, snap := range sys.StatsRegistry().Collect() {
		if snap.Layer != "store" {
			continue
		}
		for _, m := range snap.Metrics {
			if m.Name == "neighbor_reads" {
				reads = m.Value
			}
		}
	}
	if reads == 0 {
		t.Fatal("store layer reported no neighbor reads")
	}
	sys.Close()

	// The directory outlives the system: reopen it with the ingest handle,
	// append durably, and survive a reopen.
	ds, err := OpenDiskStore(StoreConfig{Path: dir, SyncMode: StoreSyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	ds, err = OpenDiskStore(StoreConfig{Path: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if ds.DeltaEdges() != 1 {
		t.Fatalf("WAL replay lost the appended edge: delta = %d", ds.DeltaEdges())
	}

	// The sentinel taxonomy is matchable through the facade.
	_, err = New("", WithGraph(g), WithSeed(13),
		WithStore(StoreConfig{Path: t.TempDir(), MemoryBudget: 10}))
	if !errors.Is(err, ErrStoreBudget) {
		t.Fatalf("tiny budget error = %v, want ErrStoreBudget", err)
	}
	if err := CreateStore(dir, g); !errors.Is(err, ErrStoreExists) {
		t.Fatalf("CreateStore over an existing store: error = %v, want ErrStoreExists", err)
	}
}

// TestPublicGateway drives the multi-tenant front door through the
// facade: WithGateway construction, SampleAs as the tenant entry point,
// and the typed rejection helpers.
func TestPublicGateway(t *testing.T) {
	g := GenerateGraph(2000, 8, 16, 5)
	sys, err := New("", WithGraph(g), WithServers(2), WithSeed(5),
		// A batch's sample is a pure function of (config, roots), so the
		// gateway and direct paths compare exactly.
		WithSampling(SamplerConfig{
			Fanouts: []int{4, 3}, NegativeRate: 2,
			Method: Streaming, FetchAttrs: true, Seed: 5,
		}),
		WithGateway(GatewayConfig{
			Tenants: []TenantConfig{
				{Name: "alice", Key: "alice-key", Weight: 4},
				{Name: "bob", Key: "bob-key", Weight: 1, Rate: 1, Burst: 8},
			},
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()
	roots := sys.BatchSource(8, 3).Next()

	// Unknown key → *AuthError.
	if _, err := sys.SampleAs(ctx, "intruder", roots); err == nil {
		t.Fatal("unknown key admitted")
	} else {
		var ae *AuthError
		if !errors.As(err, &ae) {
			t.Fatalf("unknown key error is %T, want *AuthError", err)
		}
	}

	// A real tenant samples; the result matches the direct path.
	got, err := sys.SampleAs(ctx, "alice-key", roots)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := sys.Sample(ctx, roots)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Hops, want.Hops) {
		t.Fatal("gateway path diverged from the direct path")
	}

	// Bob's 1-root/s contract dies on the second 8-root batch.
	if _, err := sys.SampleAs(ctx, "bob-key", roots); err != nil {
		t.Fatalf("bob's first batch within burst: %v", err)
	}
	_, err = sys.SampleAs(ctx, "bob-key", roots)
	rl, ok := AsRateLimited(err)
	if !ok || rl.Tenant != "bob" || rl.RetryAfter <= 0 {
		t.Fatalf("over-contract error = %v, want *RateLimitError with RetryAfter", err)
	}
	if _, ok := AsShed(err); ok {
		t.Fatal("rate limit misclassified as shed")
	}
}
