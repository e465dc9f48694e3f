package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"lsdgnn/internal/cluster"
	"lsdgnn/internal/gateway"
	"lsdgnn/internal/graph"
	"lsdgnn/internal/pipeline"
	"lsdgnn/internal/sampler"
	"lsdgnn/internal/store"
)

const (
	partitions = 2
	// connPool is the client's idle-connection pool per server, the value
	// lsdgnn-probe dials with.
	connPool  = 2
	tenantKey = "bench-key"
	// budgetDivisor sizes the disk workloads' page cache: an eighth of the
	// shard's segment, so most of the adjacency lives on "disk".
	budgetDivisor = 8
)

// stackOpts is everything the program under test is given: the graph file,
// where to keep disk stores, and the sampling plan.
type stackOpts struct {
	graphPath string
	storeDir  string // "" serves the shards from memory
	scfg      sampler.Config
	tr        *tracer // nil builds the path with no interposers but the byte counter
}

// stack is the production serving path assembled in one process, the way
// lsdgnn-server and lsdgnn-probe assemble it in two: per-partition shards
// behind TCP shard servers on loopback, a packing client, the out-of-order
// pipeline, and the gateway in front.
type stack struct {
	part      cluster.HashPartitioner
	tcps      []*cluster.TCPServer
	stores    []*store.DiskStore // nil entries when memory-backed
	storeSt   []*store.Stats
	budgets   []int64
	transport *cluster.TCPTransport
	wire      *countingTransport
	client    *cluster.Client
	exec      *pipeline.Executor
	gw        *gateway.Gateway
	storeDir  string

	// Traced seams (nil on untraced runs).
	tr      *tracer
	fetches *fetchSeam
	reads   []*tracedStore
}

// buildStack loads the graph file and brings the whole path up to the
// point where Gateway.Sample can be called.
func buildStack(ctx context.Context, o stackOpts) (_ *stack, err error) {
	s := &stack{part: cluster.HashPartitioner{N: partitions}, tr: o.tr, storeDir: o.storeDir}
	defer func() {
		if err != nil {
			s.Close()
		}
	}()
	g, err := graph.Load(o.graphPath)
	if err != nil {
		return nil, fmt.Errorf("load graph: %w", err)
	}
	addrs := make([]string, partitions)
	for p := 0; p < partitions; p++ {
		shard, err := cluster.ExtractShard(g, s.part, p)
		if err != nil {
			return nil, fmt.Errorf("extract shard %d: %w", p, err)
		}
		var backend cluster.Backend = shard
		var ds *store.DiskStore
		st := &store.Stats{}
		var budget int64
		if o.storeDir != "" {
			if ds, budget, err = openShardStore(filepath.Join(o.storeDir, fmt.Sprintf("shard-%d", p)), shard, st); err != nil {
				return nil, err
			}
			backend = ds
		}
		s.stores = append(s.stores, ds)
		s.storeSt = append(s.storeSt, st)
		s.budgets = append(s.budgets, budget)
		if o.tr != nil {
			ts := &tracedStore{Backend: backend, t: o.tr, server: p}
			s.reads = append(s.reads, ts)
			backend = ts
		}
		var handler cluster.Handler = cluster.NewBackendServer(backend, s.part, p)
		if o.tr != nil {
			handler = &tracedHandler{inner: handler, t: o.tr, server: p}
		}
		tcp, err := cluster.ServeTCP(handler, "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("serve shard %d: %w", p, err)
		}
		s.tcps = append(s.tcps, tcp)
		addrs[p] = tcp.Addr()
	}

	s.transport = cluster.DialTCP(addrs, connPool)
	s.wire = &countingTransport{inner: s.transport, t: o.tr}
	s.client, err = cluster.NewClientContext(ctx, s.wire, s.part, -1, cluster.WithPacking(cluster.PackingConfig{}))
	if err != nil {
		return nil, fmt.Errorf("dial cluster: %w", err)
	}
	if !s.client.Packing() {
		return nil, fmt.Errorf("packing not negotiated (protocol v%d)", s.client.NegotiatedVersion())
	}
	var fetch sampler.Store = s.client
	if o.tr != nil {
		s.fetches = &fetchSeam{inner: s.client, t: o.tr}
		fetch = s.fetches
	}
	s.exec = pipeline.New(fetch, o.scfg, pipeline.Config{})
	backend := gateway.Backend(s.exec.Sample)
	if o.tr != nil {
		backend = tracedBackend(o.tr, backend)
	}
	s.gw, err = gateway.New(gateway.Config{
		Tenants:  []gateway.TenantConfig{{Name: "bench", Key: tenantKey, Class: gateway.ClassThroughput}},
		Pressure: s.exec.Occupancy,
	}, backend)
	if err != nil {
		return nil, fmt.Errorf("gateway: %w", err)
	}
	return s, nil
}

// openShardStore bulk-loads shard into dir and opens it under a page-cache
// budget of a budgetDivisor-th of the segment it just wrote.
func openShardStore(dir string, shard *graph.Graph, st *store.Stats) (*store.DiskStore, int64, error) {
	if err := store.Create(dir, shard); err != nil {
		return nil, 0, fmt.Errorf("bulk-load %s: %w", dir, err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.lsds"))
	if err != nil || len(segs) != 1 {
		return nil, 0, fmt.Errorf("bulk-load %s left %d segments (%v)", dir, len(segs), err)
	}
	fi, err := os.Stat(segs[0])
	if err != nil {
		return nil, 0, err
	}
	budget := fi.Size() / budgetDivisor
	ds, err := store.Open(dir, store.WithMemoryBudget(budget), store.WithStats(st), store.WithSyncMode(store.SyncOS))
	if err != nil {
		return nil, 0, fmt.Errorf("open %s: %w", dir, err)
	}
	return ds, budget, nil
}

// sample runs one batch through the gateway as the bench tenant.
func (s *stack) sample(ctx context.Context, roots []graph.NodeID) (*sampler.Result, error) {
	return traceSample(ctx, s.tr, s.gw, tenantKey, roots)
}

// addEdge routes one edge to the shard that owns its source, as an ingest
// front end would.
func (s *stack) addEdge(src, dst graph.NodeID) error {
	owner := s.part.Owner(src)
	if !s.tr.enabled() {
		return s.stores[owner].AddEdge(src, dst)
	}
	start := s.tr.now()
	err := s.stores[owner].AddEdge(src, dst)
	s.tr.record(span{name: spanAppend, id: s.tr.newID(), server: owner, start: start, end: s.tr.now()})
	return err
}

// Close tears the path down outside in and removes the disk stores. It is
// safe on a partly built stack.
func (s *stack) Close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if s.gw != nil {
		s.gw.Close()
	}
	if s.transport != nil {
		s.transport.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, t := range s.tcps {
		keep(t.Shutdown(ctx))
	}
	for _, ds := range s.stores {
		if ds != nil {
			keep(ds.Close())
		}
	}
	if s.storeDir != "" {
		keep(os.RemoveAll(s.storeDir))
	}
	return first
}

// residentOverBudget reports the first disk store whose page cache holds
// more than it was allowed.
func (s *stack) residentOverBudget() error {
	for p, ds := range s.stores {
		if ds != nil && ds.Resident() > s.budgets[p] {
			return fmt.Errorf("shard %d resident %d B over budget %d B", p, ds.Resident(), s.budgets[p])
		}
	}
	return nil
}
