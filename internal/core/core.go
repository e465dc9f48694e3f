// Package core assembles the full LSD-GNN system — the paper's primary
// contribution as a deployable stack: a partitioned distributed graph
// store, one sampling route over it (the windowed executor over the
// cluster client, behind an optional multi-tenant gateway), a pool of
// modeled AxE access engines that time what that route sampled, and the
// RISC-V/QRCH control plane. It also provides the end-to-end application
// pipeline model behind Figure 3.
package core

import (
	"context"
	"fmt"
	"time"

	"lsdgnn/internal/axe"
	"lsdgnn/internal/cluster"
	"lsdgnn/internal/gateway"
	"lsdgnn/internal/graph"
	"lsdgnn/internal/obs"
	"lsdgnn/internal/pipeline"
	"lsdgnn/internal/sampler"
	"lsdgnn/internal/stats"
	"lsdgnn/internal/store"
	"lsdgnn/internal/trace"
	"lsdgnn/internal/workload"
)

// Options configures a System.
type Options struct {
	// Dataset selects a Table 2 dataset (scaled simulation size). Leave
	// Graph nil to build from the dataset.
	Dataset workload.Dataset
	// Graph overrides Dataset with a caller-provided graph.
	Graph *graph.Graph
	// Servers is the storage partition count (≥1).
	Servers int
	// Sampling configures the workload; zero value takes the Table 2
	// defaults.
	Sampling sampler.Config
	// Engine configures the per-node AxE; zero value takes the PoC
	// defaults.
	Engine axe.Config
	// Dispatch tunes how batches are load-balanced across engines.
	Dispatch DispatcherConfig
	// NetDelay injects a fixed per-call delay into the in-process
	// transport, for exercising deadline behavior without real sockets.
	NetDelay time.Duration
	// Replicas is the storage-tier replication factor: each partition is
	// served by this many servers (0 or 1 = no replication), shorthand for
	// Layout = cluster.UniformLayout(Servers, Replicas). Replicated systems
	// get a default resilience policy when Resilience is nil.
	Replicas int
	// Resilience configures the client-side retry/breaker policy; nil
	// leaves the client's fail-fast policy (one pass over each partition's
	// serving endpoints) unless Replicas > 1, Faults, Layout or Spares is
	// set, which imply cluster.DefaultResilienceConfig.
	Resilience *cluster.ResilienceConfig
	// Faults, when set, wraps the transport with seeded fault injection so
	// the resilience path can be exercised (chaos testing).
	Faults *cluster.FaultSpec
	// Layout, when set, is the initial elastic partition layout: one
	// server is built per layout endpoint and the client routes by the
	// layout's epoch-versioned replica sets. Implies a default resilience
	// policy. Overrides Replicas.
	Layout *cluster.Layout
	// Spares lists partition indices, one per spare endpoint to build:
	// the spare servers hold the named partition's shard and sit on the
	// transport after every layout endpoint, but start outside the layout —
	// admit them later with Client.AddReplica or Client.MigratePartition.
	Spares []int
	// Gateway, when set, builds a multi-tenant serving gateway in front of
	// the executor: per-tenant admission (api key → rate limit → fair
	// queue), SLO-driven shedding wired to the executor's window occupancy,
	// and the SampleAs entry point. Pressure/Burn/SLOs/Tracer fields left
	// nil are wired to the system's own signals.
	Gateway *gateway.Config
	// Tracing sizes the system tracer (span-ring capacity, span sampling
	// rate); the zero value takes the obs defaults.
	Tracing obs.TracerConfig
	// Store selects the storage substrate behind the partition servers.
	// Without a Store.Path they serve from the in-process graph. With one,
	// the graph is bulk-loaded into a persistent segment+WAL store at that
	// path on first use (reopened thereafter) and every partition server
	// answers from it, paging under Store.MemoryBudget instead of holding
	// the graph in RAM.
	Store store.Config
	Seed  int64
}

// Default latency objectives for an assembled system: the dispatcher's
// placement and timing of a batch, and the executor's sampling of it.
// Thresholds are simulation-scale — wide enough that a healthy run stays
// inside budget, tight enough that injected chaos burns it.
const (
	DefaultSampleSLO        = 25 * time.Millisecond
	DefaultSoftwareBatchSLO = 50 * time.Millisecond
)

// System is an assembled LSD-GNN deployment.
type System struct {
	Graph *graph.Graph
	Part  cluster.Partitioner
	// Servers holds every storage endpoint: one server per endpoint of the
	// initial layout (Options.Layout, else cluster.UniformLayout over
	// Options.Replicas: the primaries first, then each full replica set),
	// indexed by endpoint. Spare endpoints (Options.Spares) come last,
	// outside the initial layout.
	Servers    []*cluster.Server
	Client     *cluster.Client
	Engines    []*axe.Engine
	Dispatcher *Dispatcher
	Sampling   sampler.Config
	// Faults is the injection hook when Options.Faults was set (nil
	// otherwise); tests and experiments use it to kill/revive servers.
	Faults *cluster.FaultyTransport
	// Obs is the system-wide hop tracer: every batch through Sample,
	// Pipeline.Sample or SampleAs gets one trace ID, and its per-hop
	// timings (gate wait, batch, fetch, rpc, wire, server, dispatch wait,
	// engine) land here.
	Obs *obs.Tracer
	// SLOs tracks the system's latency objectives: "sample" (the
	// dispatcher's placement and timing) and "software_batch" (the
	// executor's sampling), declared at construction so their series exist
	// at zero from the first scrape.
	SLOs *stats.SLOTracker
	// Pipeline is the windowed sampling executor over Client: the one
	// route every entry point samples through.
	Pipeline *pipeline.Executor
	// Gateway is the multi-tenant front door when Options.Gateway was set
	// (nil otherwise); SampleAs routes through it.
	Gateway *gateway.Gateway
	// Store is the persistent store the partition servers answer from
	// when Options.Store named a path, and nil when they serve from Graph.
	// Closed by Close.
	Store *store.DiskStore
}

// NewSystem builds servers, a client, the executor over it, one modeled AxE
// engine per partition, and a dispatcher that places batches on them.
func NewSystem(opts Options) (*System, error) {
	if opts.Servers < 1 {
		return nil, fmt.Errorf("core: need ≥1 server, got %d", opts.Servers)
	}
	g := opts.Graph
	if g == nil {
		if opts.Dataset.Name == "" {
			return nil, fmt.Errorf("core: either Graph or Dataset must be set")
		}
		g = opts.Dataset.Build(opts.Seed)
	}
	sCfg := opts.Sampling
	if len(sCfg.Fanouts) == 0 {
		spec := workload.DefaultSampling()
		sCfg = sampler.Config{
			Fanouts:      spec.Fanouts,
			NegativeRate: spec.NegativeRate,
			Method:       sampler.Streaming,
			FetchAttrs:   spec.FetchAttrs,
			Seed:         opts.Seed,
		}
	}
	eCfg := opts.Engine
	if eCfg.Cores == 0 {
		eCfg = axe.DefaultConfig()
	}
	eCfg.Sampling = sCfg

	part := cluster.HashPartitioner{N: opts.Servers}
	sys := &System{
		Graph: g, Part: part, Sampling: sCfg,
		Obs:  obs.NewTracerWith(opts.Tracing),
		SLOs: stats.NewSLOTracker(),
	}
	sampleSLO := sys.SLOs.Objective(stats.Objective{Name: "sample", Threshold: DefaultSampleSLO})
	softSLO := sys.SLOs.Objective(stats.Objective{Name: "software_batch", Threshold: DefaultSoftwareBatchSLO})
	// The storage substrate: with a store path, servers answer from a
	// persistent segment+WAL store (paging under its memory budget);
	// without one, straight from the shared graph object.
	if opts.Store.Path != "" {
		ds, err := store.FromConfig(opts.Store, g)
		if err != nil {
			return nil, err
		}
		sys.Store = ds
	}
	assembled := false
	defer func() {
		if !assembled && sys.Store != nil {
			sys.Store.Close()
		}
	}()
	newServer := func(p int) *cluster.Server {
		if sys.Store != nil {
			return cluster.NewBackendServer(sys.Store, part, p)
		}
		return cluster.NewServer(g, part, p)
	}
	// The layout names the endpoints: build one server per listed endpoint
	// holding its partition's shard, densely indexed so the transport can
	// reach every one of them.
	layout := opts.Layout
	if layout == nil {
		layout = cluster.UniformLayout(opts.Servers, opts.Replicas)
	}
	if err := layout.Validate(opts.Servers); err != nil {
		return nil, err
	}
	eps := layout.Endpoints()
	for ep := 0; ep < len(eps); ep++ {
		p, ok := eps[ep]
		if !ok {
			return nil, fmt.Errorf("core: layout leaves endpoint %d unassigned", ep)
		}
		sys.Servers = append(sys.Servers, newServer(p))
	}
	// Spare endpoints ride the transport behind every layout endpoint,
	// holding a shard but taking no traffic until admitted.
	for _, p := range opts.Spares {
		if p < 0 || p >= opts.Servers {
			return nil, fmt.Errorf("core: spare endpoint's partition %d out of %d", p, opts.Servers)
		}
		sys.Servers = append(sys.Servers, newServer(p))
	}
	var tr cluster.Transport = cluster.DirectTransport{Servers: sys.Servers}
	if opts.NetDelay > 0 {
		tr = cluster.DelayedTransport{Inner: tr, Delay: opts.NetDelay}
	}
	if opts.Faults != nil {
		ft := cluster.NewFaultyTransport(tr, opts.Seed)
		ft.SetFaults(*opts.Faults)
		tr = ft
		sys.Faults = ft
	}
	// Replication, fault injection, or an elastic layout without an
	// explicit policy still gets retries + breakers: a failing endpoint
	// should cost a retry, not a batch.
	resCfg := opts.Resilience
	if resCfg == nil && (opts.Replicas > 1 || opts.Faults != nil || opts.Layout != nil || len(opts.Spares) > 0) {
		d := cluster.DefaultResilienceConfig()
		resCfg = &d
	}
	copts := []cluster.ClientOption{cluster.WithTracer(sys.Obs), cluster.WithLayout(layout)}
	if resCfg != nil {
		copts = append(copts, cluster.WithResilience(*resCfg))
	}
	client, err := cluster.NewClientContext(context.Background(), tr, part, 0, copts...)
	if err != nil {
		return nil, err
	}
	sys.Client = client
	// One engine per partition.
	for i := 0; i < opts.Servers; i++ {
		eng, err := axe.New(g, part, i, eCfg)
		if err != nil {
			return nil, err
		}
		sys.Engines = append(sys.Engines, eng)
	}
	disp, err := NewDispatcher(sys.Engines, opts.Dispatch)
	if err != nil {
		return nil, err
	}
	disp.tracer, disp.slo = sys.Obs, sampleSLO
	sys.Dispatcher = disp
	sys.Pipeline = pipeline.New(client, sCfg, pipeline.Config{})
	sys.Pipeline.SetTracer(sys.Obs)
	sys.Pipeline.SetSLO(softSLO)
	if opts.Gateway != nil {
		gcfg := *opts.Gateway
		if gcfg.SLOs == nil {
			gcfg.SLOs = sys.SLOs
		}
		if gcfg.Tracer == nil {
			gcfg.Tracer = sys.Obs
		}
		if gcfg.Pressure == nil {
			gcfg.Pressure = sys.Pipeline.Occupancy
		}
		if gcfg.Burn == nil {
			gcfg.Burn = softSLO.BurnFast
		}
		gw, err := gateway.New(gcfg, sys.Pipeline.Sample)
		if err != nil {
			return nil, err
		}
		sys.Gateway = gw
	}
	assembled = true
	return sys, nil
}

// SampleAs runs one batch through the multi-tenant gateway as the tenant
// identified by key: admission (auth → rate limit → shed check), the
// weighted-fair queue, then Pipeline.Sample. Typed rejections surface via
// errors.As: gateway.AuthError, gateway.RateLimitError,
// gateway.AdmissionError.
func (s *System) SampleAs(ctx context.Context, key string, roots []graph.NodeID) (*sampler.Result, error) {
	if s.Gateway == nil {
		return nil, fmt.Errorf("core: no gateway configured (set Options.Gateway)")
	}
	return s.Gateway.Sample(ctx, key, roots)
}

// Close releases background resources: it waits out the gateway's
// admitted batches, then closes the storage backend (WAL sync + segment
// unmap for a disk store).
func (s *System) Close() {
	if s.Gateway != nil {
		s.Gateway.Close()
	}
	if s.Store != nil {
		s.Store.Close()
	}
}

// Sample runs one accelerated batch: Pipeline.Sample fetches it over the
// wire like every other batch, then the dispatcher places it on the
// least-loaded AxE engine, which returns the modeled time of producing it.
// The context bounds sampling and the wait for an engine; the batch keeps
// one trace ID throughout. A *sampler.PartialError comes back beside the
// layout-complete result and its timing, as from Pipeline.Sample.
func (s *System) Sample(ctx context.Context, roots []graph.NodeID) (*sampler.Result, axe.BatchStats, error) {
	ctx, _ = obs.EnsureTrace(ctx)
	res, err := s.Pipeline.Sample(ctx, roots)
	if res == nil {
		return nil, axe.BatchStats{}, err
	}
	st, serr := s.Dispatcher.Submit(ctx, res)
	if serr != nil {
		res.Release()
		return nil, axe.BatchStats{}, serr
	}
	return res, st, err
}

// BatchSource returns a deterministic root generator for this system.
func (s *System) BatchSource(batchSize int, seed int64) *workload.BatchSource {
	return workload.NewBatchSource(s.Graph.NumNodes(), batchSize, seed)
}

// StatsRegistry assembles the unified metrics view of the system: client
// wire traffic, resilience counters, the executor's batch layer,
// dispatcher placement/latency, the per-hop trace histograms, and the
// per-class access profile merged across all partition servers.
func (s *System) StatsRegistry() *stats.Registry {
	reg := stats.NewRegistry()
	reg.Register(&s.Client.Traffic, &s.Client.Res, &s.Client.Pack, &s.Client.Lay, s.Dispatcher, s.Obs, s.SLOs, s.Pipeline.Stats())
	if s.Gateway != nil {
		reg.Register(s.Gateway.Sources()...)
	}
	// The storage tier: a disk-backed system exports its live cache/WAL
	// counters; one serving from memory pre-registers the same series at
	// zero so the "store" namespace is the same either way.
	if s.Store != nil {
		reg.Register(s.Store.Stats())
	} else {
		reg.PreRegister(&store.Stats{})
	}
	servers := s.Servers
	// One merged cluster.wire block: per-server counters summed, ratios
	// recomputed over the totals.
	reg.Register(stats.Func(func() stats.Snapshot {
		merged := stats.Snapshot{Layer: "cluster.wire"}
		sums := map[string]float64{}
		order := []string{"bytes_total", "bytes_in", "bytes_out", "frames_total", "packed_frames", "packed_requests"}
		for _, srv := range servers {
			for _, m := range srv.Wire().StatsSnapshot().Metrics {
				sums[m.Name] += m.Value
			}
		}
		for _, name := range order {
			unit := "req"
			if name[0] == 'b' {
				unit = "bytes"
			}
			merged.Metrics = append(merged.Metrics, stats.Metric{Name: name, Value: sums[name], Unit: unit})
		}
		packRatio := 1.0
		if sums["packed_frames"] > 0 {
			packRatio = sums["packed_requests"] / sums["packed_frames"]
		}
		merged.Metrics = append(merged.Metrics, stats.Metric{Name: "pack_ratio", Value: packRatio, Unit: "ratio"})
		return merged
	}))
	reg.Register(stats.Func(func() stats.Snapshot {
		var structReq, structBytes, attrReq, attrBytes float64
		for _, srv := range servers {
			st := srv.Stats()
			structReq += float64(st.Requests(trace.AccessStructure))
			structBytes += float64(st.Bytes(trace.AccessStructure))
			attrReq += float64(st.Requests(trace.AccessAttribute))
			attrBytes += float64(st.Bytes(trace.AccessAttribute))
		}
		share := 0.0
		if structReq+attrReq > 0 {
			share = structReq / (structReq + attrReq)
		}
		return stats.Snapshot{Layer: "trace.access", Metrics: []stats.Metric{
			{Name: "structure_requests", Value: structReq, Unit: "req"},
			{Name: "structure_bytes", Value: structBytes, Unit: "bytes"},
			{Name: "attribute_requests", Value: attrReq, Unit: "req"},
			{Name: "attribute_bytes", Value: attrBytes, Unit: "bytes"},
			{Name: "structure_share", Value: share, Unit: "ratio"},
		}}
	}))
	return reg
}
