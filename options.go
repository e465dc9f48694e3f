package lsdgnn

import (
	"time"

	"lsdgnn/internal/cluster"
	"lsdgnn/internal/core"
	"lsdgnn/internal/gateway"
	"lsdgnn/internal/obs"
	"lsdgnn/internal/sampler"
)

// Error and policy types re-exported from the cluster layer, so callers
// match on semantics with errors.As instead of string-matching messages
// from an internal package:
//
//	res, err := sys.Pipeline.Sample(ctx, roots)
//	var pe *lsdgnn.PipelinePartialError
//	if errors.As(err, &pe) {
//		// Degraded batch: res keeps its full layout; pe.Roots lists the
//		// padded roots, and each of pe.Errs is a *PartialError naming the
//		// partitions one fetch lost. Use or discard res deliberately.
//		log.Printf("degraded: %d roots", len(pe.Roots))
//	} else if err != nil {
//		return err // hard failure, res is nil
//	}
//
//	var se *lsdgnn.ServerError
//	if errors.As(err, &se) {
//		// A live server rejected the request (bad node ID, malformed
//		// frame): deterministic, so retrying is pointless.
//		log.Printf("server %d rejected: %s", se.Server, se.Msg)
//	}
type (
	// PartialError annotates one degraded fetch: the listed shards
	// contributed no data. It reaches callers inside a
	// PipelinePartialError's Errs, only when the resilience policy enables
	// PartialResults.
	PartialError = cluster.PartialError
	// ServerError is a deterministic application-level rejection from a
	// live server — never retried, never counted against breakers.
	ServerError = cluster.ServerError
	// ShardError pairs one lost partition with its error inside a
	// PartialError.
	ShardError = cluster.ShardError
	// ResilienceConfig tunes retries, circuit breakers, replica failover,
	// and partial-results degradation.
	ResilienceConfig = cluster.ResilienceConfig
	// FaultSpec injects seeded chaos into the storage transport.
	FaultSpec = cluster.FaultSpec
	// DispatcherConfig tunes batch placement across AxE engines.
	DispatcherConfig = core.DispatcherConfig
	// TracingConfig sizes the system tracer: span-ring capacity and the
	// 1-in-n span sampling rate (histograms always record).
	TracingConfig = obs.TracerConfig
	// PipelinePartialError reports per-root degradation from a sampled
	// batch: the result keeps its full layout, and each listed root's
	// subtree carries self-loop padding / zeroed attributes.
	PipelinePartialError = sampler.PartialError
	// RootError pairs one degraded root with its error inside a
	// PipelinePartialError.
	RootError = sampler.RootError
	// Layout is the versioned, epoch-numbered elastic partition layout:
	// per partition, the endpoints routed to, primary first. Built by
	// UniformLayout or cluster.NewLayout; swapped live via
	// System.Client.ApplyLayout, AddReplica, DrainReplica, and
	// MigratePartition.
	Layout = cluster.Layout
	// GatewayConfig assembles the multi-tenant serving gateway enabled by
	// WithGateway: tenants, queue depth, backend concurrency, and the
	// shedding signals.
	GatewayConfig = gateway.Config
	// TenantConfig declares one tenant: name, api key, service class,
	// rate/burst, fair-share weight, and latency SLO.
	TenantConfig = gateway.TenantConfig
	// AuthError reports a SampleAs call with an unknown or missing api key.
	AuthError = gateway.AuthError
	// RateLimitError reports a batch refused by the tenant's token bucket;
	// RetryAfter says when capacity returns.
	RateLimitError = gateway.RateLimitError
	// AdmissionError reports a batch shed under backpressure (tenant queue
	// full, or the system's occupancy/SLO-burn signals crossed their
	// thresholds and this tenant carried the heaviest queue).
	AdmissionError = gateway.AdmissionError
)

// AsPartial unwraps a *PartialError, mirroring cluster.AsPartial.
func AsPartial(err error) (*PartialError, bool) { return cluster.AsPartial(err) }

// AsPipelinePartial unwraps a *PipelinePartialError, mirroring
// sampler.AsPartial.
func AsPipelinePartial(err error) (*PipelinePartialError, bool) { return sampler.AsPartial(err) }

// AsRateLimited unwraps a *RateLimitError from a SampleAs error chain:
//
//	res, err := sys.SampleAs(ctx, key, roots)
//	if rl, ok := lsdgnn.AsRateLimited(err); ok {
//		time.Sleep(rl.RetryAfter) // tenant over its bucket — back off
//	}
func AsRateLimited(err error) (*RateLimitError, bool) { return gateway.AsRateLimited(err) }

// AsShed unwraps an *AdmissionError from a SampleAs error chain. A shed
// batch was never dispatched — resubmitting later is safe and expected.
func AsShed(err error) (*AdmissionError, bool) { return gateway.AsShed(err) }

// DefaultResilienceConfig returns the stock retry/breaker/failover policy.
func DefaultResilienceConfig() ResilienceConfig { return cluster.DefaultResilienceConfig() }

// Option customizes a System built by New.
type Option func(*Options)

// WithGraph supplies a caller-built graph instead of a named dataset.
func WithGraph(g *Graph) Option {
	return func(o *Options) { o.Graph = g }
}

// WithServers sets the storage partition count (default 4).
func WithServers(n int) Option {
	return func(o *Options) { o.Servers = n }
}

// WithSeed seeds graph generation, sampling, and fault injection.
func WithSeed(seed int64) Option {
	return func(o *Options) { o.Seed = seed }
}

// WithSampling overrides the Table 2 default sampling workload.
func WithSampling(cfg SamplerConfig) Option {
	return func(o *Options) { o.Sampling = cfg }
}

// WithEngines overrides the PoC AxE engine configuration.
func WithEngines(cfg EngineConfig) Option {
	return func(o *Options) { o.Engine = cfg }
}

// WithDispatch tunes how batches are placed across engines.
func WithDispatch(cfg DispatcherConfig) Option {
	return func(o *Options) { o.Dispatch = cfg }
}

// WithTracing sizes the system tracer: how many completed spans the ring
// retains (/trace lookups reach back this far) and the 1-in-n trace
// sampling rate for the span log. Zero fields keep the defaults (512
// spans, every trace kept):
//
//	sys, err := lsdgnn.New("ss",
//		lsdgnn.WithTracing(lsdgnn.TracingConfig{SpanLog: 4096, SampleRate: 8}),
//	)
func WithTracing(cfg TracingConfig) Option {
	return func(o *Options) { o.Tracing = cfg }
}

// WithNetDelay injects a fixed per-call transport delay (deadline and
// timeout testing without sockets).
func WithNetDelay(d time.Duration) Option {
	return func(o *Options) { o.NetDelay = d }
}

// WithReplicas replicates every partition n ways: shorthand for
// WithLayout(UniformLayout(servers, n)). n > 1 implies a default
// resilience policy (retries and breakers on top of failover) unless
// WithResilience overrides it.
func WithReplicas(n int) Option {
	return func(o *Options) { o.Replicas = n }
}

// WithResilience sets the client fault-tolerance policy explicitly.
func WithResilience(cfg ResilienceConfig) Option {
	return func(o *Options) { c := cfg; o.Resilience = &c }
}

// UniformLayout builds the canonical replicated layout (replica r of
// partition p at endpoint r*partitions+p) as an epoch-1 Layout for
// WithLayout.
func UniformLayout(partitions, replicas int) *Layout {
	return cluster.UniformLayout(partitions, replicas)
}

// WithLayout sets the initial partition layout: the system builds one
// server per layout endpoint, and the client routes by the layout's
// epoch-versioned replica sets. Replicas can be added (probe-gated),
// drained, and whole partitions migrated between endpoints while traffic
// flows:
//
//	sys, err := lsdgnn.New("ss",
//		lsdgnn.WithServers(2),
//		lsdgnn.WithLayout(lsdgnn.UniformLayout(2, 2)),
//		lsdgnn.WithSpares(0), // endpoint 4: spare holding partition 0
//	)
//	err = sys.Client.DrainReplica(ctx, 0, 2) // rotate replica out
//	err = sys.Client.AddReplica(ctx, 0, 4)   // admit the spare
//
// Implies a default resilience policy (retries and breakers, so an
// admission probe rides out transient faults) unless WithResilience
// overrides it.
func WithLayout(l *Layout) Option {
	return func(o *Options) { o.Layout = l }
}

// WithSpares builds one extra storage server per listed partition index,
// attached to the transport after every layout endpoint but outside the
// initial layout — raw material for Client.AddReplica and
// Client.MigratePartition.
func WithSpares(partitions ...int) Option {
	return func(o *Options) { o.Spares = partitions }
}

// WithFaults injects seeded chaos into the storage transport.
func WithFaults(spec FaultSpec) Option {
	return func(o *Options) { s := spec; o.Faults = &s }
}

// WithGateway builds the multi-tenant serving gateway in front of the
// system: per-tenant admission (api key → token bucket → weighted-fair
// queue) and SLO-driven shedding wired to the system's live backpressure.
// System.SampleAs then serves tenant traffic; rejections surface as typed
// AuthError / RateLimitError / AdmissionError values:
//
//	sys, err := lsdgnn.New("ss", lsdgnn.WithGateway(lsdgnn.GatewayConfig{
//		Tenants: []lsdgnn.TenantConfig{
//			{Name: "alice", Key: "ak", Class: "latency", Rate: 500, Weight: 4},
//			{Name: "bob", Key: "bk", Class: "throughput", Rate: 100},
//		},
//	}))
//	defer sys.Close()
//	res, err := sys.SampleAs(ctx, "ak", roots)
func WithGateway(cfg GatewayConfig) Option {
	return func(o *Options) { c := cfg; o.Gateway = &c }
}

// WithStore selects the storage substrate behind the partition servers.
// Without it, or with an empty cfg.Path, they serve from the in-process
// graph. A cfg.Path persists the graph there as an mmap'd CSR segment +
// write-ahead log — bulk-loaded on first use, reopened (with WAL crash
// recovery) thereafter — and the servers answer from it while keeping at
// most cfg.MemoryBudget bytes of segment data resident, which is how a
// node serves a graph larger than its RAM:
//
//	sys, err := lsdgnn.New("ss", lsdgnn.WithStore(lsdgnn.StoreConfig{
//		Path:         "/data/lsdgnn/ss",
//		MemoryBudget: 256 << 20, // 0 = mmap the whole segment
//		SyncMode:     lsdgnn.StoreSyncAlways,
//	}))
//	defer sys.Close() // syncs the WAL, releases the mapping
//
// Storage failures surface as wrapped sentinels: match
// lsdgnn.ErrStoreCorrupt / lsdgnn.ErrStoreBudget with errors.Is.
func WithStore(cfg StoreConfig) Option {
	return func(o *Options) { o.Store = cfg }
}

// New assembles a deployment from a named Table 2 dataset ("ss", "ls",
// "sl", "ml", "ll", "syn") and functional options:
//
//	sys, err := lsdgnn.New("ss",
//		lsdgnn.WithReplicas(2),
//		lsdgnn.WithFaults(lsdgnn.FaultSpec{ErrRate: 0.05}),
//	)
//
// An empty dataset name requires WithGraph. The partition count defaults
// to 4 servers; every other knob defaults as documented on its option.
func New(dataset string, opts ...Option) (*System, error) {
	o := Options{Servers: 4}
	if dataset != "" {
		ds, err := workloadDataset(dataset)
		if err != nil {
			return nil, err
		}
		o.Dataset = ds
	}
	for _, opt := range opts {
		opt(&o)
	}
	return core.NewSystem(o)
}

// workloadDataset resolves a dataset name (indirection keeps options.go
// free of a workload import cycle in future splits).
func workloadDataset(name string) (Dataset, error) { return DatasetByName(name) }

// DefaultSamplerConfig returns the paper's default two-hop sampling
// workload for the given seed — the configuration New applies when
// WithSampling is not given.
func DefaultSamplerConfig(seed int64) SamplerConfig {
	return sampler.Config{
		Fanouts: []int{10, 10}, NegativeRate: 10,
		Method: sampler.Streaming, FetchAttrs: true, Seed: seed,
	}
}
