// Package lsdgnn is a full-system reproduction of "Hyperscale
// FPGA-as-a-Service Architecture for Large-Scale Distributed Graph Neural
// Network" (ISCA 2022): a distributed graph store with an AliGraph-style
// software sampling baseline, the AxE access-engine accelerator (combined
// functional + timing simulator), the MoF memory-over-fabric protocol, a
// RISC-V/QRCH control plane, and the analytical performance/cost models
// behind the paper's FaaS design-space exploration.
//
// The package re-exports the high-level entry points; subsystems live in
// internal/ packages and are exercised through this facade, the example
// programs under examples/, and the experiment harness in
// cmd/lsdgnn-bench.
//
// Build a deployment with New and functional options:
//
//	sys, err := lsdgnn.New("ss",
//		lsdgnn.WithReplicas(2),
//		lsdgnn.WithResilience(lsdgnn.DefaultResilienceConfig()),
//	)
//	res, err := sys.Pipeline.Sample(ctx, roots)        // sampled over the wire
//	res, st, err := sys.Sample(ctx, roots)             // same bytes + modeled AxE timing
//
// Every entry point samples through one route: the windowed executor
// (sys.Pipeline, the software AxE load unit of Tech-3) over the cluster
// client. Sample then times the batch on a modeled AxE engine, and
// SampleAs puts the multi-tenant gateway in front. Errors from that route
// carry typed semantics — match them with errors.As rather than string
// inspection. One taxonomy covers every entry point:
//
//	error type            path                 meaning
//	----------            ----                 -------
//	PipelinePartialError  any sampling path    degraded batch; result keeps
//	                                           its full layout, Roots lists
//	                                           the padded subtrees
//	PartialError          inside the above     one fetch's lost partitions
//	                                           (Shards); AsPartial finds it
//	ServerError           any RPC path         live server rejected the
//	                                           request deterministically —
//	                                           never retried
//	AuthError             SampleAs             unknown or missing api key
//	RateLimitError        SampleAs             tenant over its token bucket;
//	                                           RetryAfter says when to retry
//	AdmissionError        SampleAs             batch shed under backpressure
//	                                           (queue full or SLO fast burn)
//
// Helpers AsPartial, AsPipelinePartial, AsRateLimited, and AsShed wrap
// errors.As for the common matches (worked examples in options.go).
//
// Storage errors from the persistent store (WithStore with a
// StoreConfig.Path, CreateStore, OpenDiskStore) are sentinels — match them
// with errors.Is:
//
//	sentinel         meaning
//	--------         -------
//	ErrStoreCorrupt  a segment header/section, CURRENT file, or WAL record
//	                 failed checksum or bounds validation; the store never
//	                 serves guessed data (a torn WAL tail after a crash is
//	                 not corruption — recovery truncates and replays)
//	ErrStoreBudget   the configured memory budget cannot hold the
//	                 segment's offset index plus one 4 KiB cache page —
//	                 raise the budget
//	ErrStoreExists   CreateStore's path already holds a store
package lsdgnn

import (
	"lsdgnn/internal/axe"
	"lsdgnn/internal/core"
	"lsdgnn/internal/cost"
	"lsdgnn/internal/faas"
	"lsdgnn/internal/graph"
	"lsdgnn/internal/perfmodel"
	"lsdgnn/internal/sampler"
	"lsdgnn/internal/store"
	"lsdgnn/internal/workload"
)

// Re-exported core types. The facade keeps one import path for downstream
// users while the implementation stays modular.
type (
	// System is an assembled LSD-GNN deployment (graph store + engines).
	System = core.System
	// Options configures a System; most callers should build one through
	// New and functional options instead of filling this in by hand.
	Options = core.Options
	// NodeID identifies a graph vertex.
	NodeID = graph.NodeID
	// Graph is immutable CSR graph storage.
	Graph = graph.Graph
	// Result is a sampled mini-batch.
	Result = sampler.Result
	// Dataset is a Table 2 benchmark dataset.
	Dataset = workload.Dataset
	// EngineConfig parameterizes the AxE accelerator.
	EngineConfig = axe.Config
	// BatchStats is the hardware-model outcome of one accelerated batch.
	BatchStats = axe.BatchStats
	// CostModel is the fitted linear FaaS price model.
	CostModel = cost.Model
	// FaaSEvaluation is the full design-space-exploration output.
	FaaSEvaluation = faas.Evaluation
	// Hetero is a multi-relation (heterogeneous) graph.
	Hetero = graph.Hetero
	// Dynamic overlays mutable edge ingestion on an immutable graph.
	Dynamic = graph.Dynamic
	// MetaPathSampler samples along a relation path of a Hetero graph.
	MetaPathSampler = sampler.MetaPathSampler
	// SamplerConfig configures k-hop sampling.
	SamplerConfig = sampler.Config
	// WeightFunc scores candidates for importance-weighted sampling.
	WeightFunc = sampler.WeightFunc
	// StoreConfig selects the storage substrate behind the partition
	// servers (see WithStore): the on-disk path (empty serves from
	// memory), resident memory budget, and WAL durability mode.
	StoreConfig = store.Config
	// DiskStore is the persistent mmap CSR + WAL graph store: the
	// batch-first sampler store contract, Close, and the streaming ingest
	// surface (AddEdge, SetAttr, Compact). Obtain one with OpenDiskStore.
	DiskStore = store.DiskStore
)

// WAL durability selectors for StoreConfig.
const (
	// StoreSyncOS leaves WAL appends in the OS page cache (fast; a power
	// failure loses the un-synced tail, never corrupts).
	StoreSyncOS = store.SyncOS
	// StoreSyncAlways fsyncs the WAL per append (every ack survives power
	// failure).
	StoreSyncAlways = store.SyncAlways
)

// Storage sentinels — match with errors.Is (taxonomy in the package doc).
var (
	// ErrStoreCorrupt marks stored data that failed checksum or bounds
	// validation.
	ErrStoreCorrupt = store.ErrCorrupt
	// ErrStoreBudget marks a memory budget too small to hold the offset
	// index and one cache page.
	ErrStoreBudget = store.ErrBudgetExceeded
	// ErrStoreExists marks a CreateStore over a path that already holds a
	// store.
	ErrStoreExists = store.ErrExists
)

// Sampling method re-exports.
const (
	// Reservoir is conventional exact K-of-N sampling.
	Reservoir = sampler.Reservoir
	// Streaming is the paper's step-based streaming sampling (Tech-2).
	Streaming = sampler.Streaming
)

// Datasets returns the paper's six benchmark graph configurations
// (Table 2): ss, ls, sl, ml, ll, syn.
func Datasets() []Dataset { return workload.Datasets() }

// DatasetByName looks up a Table 2 dataset.
func DatasetByName(name string) (Dataset, error) { return workload.DatasetByName(name) }

// GenerateGraph builds a synthetic power-law graph with the given node
// count, average degree and attribute length.
func GenerateGraph(nodes int64, avgDegree float64, attrLen int, seed int64) *Graph {
	return graph.Generate(graph.GenConfig{
		NumNodes: nodes, AvgDegree: avgDegree, AttrLen: attrLen,
		Seed: seed, PowerLaw: true,
	})
}

// DefaultEngineConfig returns the PoC AxE configuration (Table 10).
func DefaultEngineConfig() EngineConfig { return axe.DefaultConfig() }

// NewHetero creates a heterogeneous graph over a shared node space.
func NewHetero(numNodes int64, attrLen int) *Hetero { return graph.NewHetero(numNodes, attrLen) }

// NewDynamic wraps a graph for online edge ingestion.
func NewDynamic(base *Graph) *Dynamic { return graph.NewDynamic(base) }

// NewMetaPathSampler samples a Hetero graph along a relation path.
func NewMetaPathSampler(h *Hetero, path []string, cfg SamplerConfig) (*MetaPathSampler, error) {
	return sampler.NewMetaPath(h, path, cfg)
}

// CreateStore bulk-loads g into a new persistent store directory (an
// immutable CSR segment plus the commit files). It fails with a wrapped
// ErrStoreExists if path already holds a store.
func CreateStore(path string, g *Graph) error { return store.Create(path, g) }

// OpenDiskStore opens the persistent store at cfg.Path, which must already
// hold one (create it with CreateStore), and returns the handle with the
// ingest surface:
//
//	err := lsdgnn.CreateStore(dir, g)                     // once
//	ds, err := lsdgnn.OpenDiskStore(lsdgnn.StoreConfig{
//		Path: dir, MemoryBudget: 64 << 20,
//	})
//	defer ds.Close()
//	err = ds.AddEdge(src, dst) // WAL-logged, durable per SyncMode
//	err = ds.Compact()         // fold the memtable into a new segment
func OpenDiskStore(cfg StoreConfig) (*DiskStore, error) { return store.FromConfig(cfg, nil) }

// LoadGraph reads a graph saved with SaveGraph.
func LoadGraph(path string) (*Graph, error) { return graph.Load(path) }

// SaveGraph writes g to a CRC-protected binary file.
func SaveGraph(g *Graph, path string) error { return g.Save(path) }

// FitCostModel fits the linear FaaS price model to the built-in instance
// price table (Figure 16 methodology).
func FitCostModel() (CostModel, error) { return cost.Fit(cost.PriceTable()) }

// EvaluateFaaS runs the full design-space exploration of Section 6/7: all
// eight architectures × six datasets × three instance sizes (Figures
// 17–21).
func EvaluateFaaS() (*FaaSEvaluation, error) {
	m, err := FitCostModel()
	if err != nil {
		return nil, err
	}
	return faas.Evaluate(m, perfmodel.DefaultCPUModel()), nil
}
