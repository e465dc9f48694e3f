package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/mem"
	"lsdgnn/internal/obs"
	"lsdgnn/internal/stats"
	"lsdgnn/internal/trace"
)

// Transport delivers a request message to a server and returns its reply.
// Implementations must be safe for concurrent Call and must honor ctx:
// a canceled or expired context aborts the call (including one already on
// the wire) and surfaces ctx.Err(). The reply is the caller's to recycle
// (mem.Bytes); msg stays the caller's and must not be touched once Call
// returns, because the client recycles it then.
type Transport interface {
	Call(ctx context.Context, server int, msg []byte) ([]byte, error)
}

// DirectTransport calls in-process servers directly (zero-cost transport
// for functional tests).
type DirectTransport struct{ Servers []*Server }

// Call implements Transport.
func (t DirectTransport) Call(ctx context.Context, server int, msg []byte) ([]byte, error) {
	if server < 0 || server >= len(t.Servers) {
		return nil, fmt.Errorf("cluster: no server %d", server)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return t.Servers[server].Handle(ctx, msg)
}

// DelayedTransport injects a fixed one-way delay in front of an inner
// transport — the in-process stand-in for a slow network path. The wait
// honors ctx, so deadline and cancellation semantics can be tested without
// real sockets.
type DelayedTransport struct {
	Inner Transport
	Delay time.Duration
}

// Call implements Transport.
func (t DelayedTransport) Call(ctx context.Context, server int, msg []byte) ([]byte, error) {
	if t.Delay > 0 {
		timer := time.NewTimer(t.Delay)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return t.Inner.Call(ctx, server, msg)
}

// TrafficSnapshot is a point-in-time copy of wire-traffic counters.
type TrafficSnapshot struct {
	Requests               int64
	RequestBytes           int64
	ResponseBytes          int64
	RemoteRequests         int64
	RemoteBytesTransferred int64
}

// TrafficStats tallies wire bytes by direction. Safe for concurrent use.
type TrafficStats struct {
	mu   sync.Mutex
	snap TrafficSnapshot
}

func (t *TrafficStats) record(reqB, respB int, remote bool) {
	t.mu.Lock()
	t.snap.Requests++
	t.snap.RequestBytes += int64(reqB)
	t.snap.ResponseBytes += int64(respB)
	if remote {
		t.snap.RemoteRequests++
		t.snap.RemoteBytesTransferred += int64(reqB + respB)
	}
	t.mu.Unlock()
}

// Snapshot returns a copy of the counters.
func (t *TrafficStats) Snapshot() TrafficSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.snap
}

// StatsSnapshot implements stats.Source under the "cluster.traffic" layer.
func (t *TrafficStats) StatsSnapshot() stats.Snapshot {
	s := t.Snapshot()
	return stats.Snapshot{Layer: "cluster.traffic", Metrics: []stats.Metric{
		{Name: "requests", Value: float64(s.Requests), Unit: "req"},
		{Name: "request_bytes", Value: float64(s.RequestBytes), Unit: "bytes"},
		{Name: "response_bytes", Value: float64(s.ResponseBytes), Unit: "bytes"},
		{Name: "remote_requests", Value: float64(s.RemoteRequests), Unit: "req"},
		{Name: "remote_bytes", Value: float64(s.RemoteBytesTransferred), Unit: "bytes"},
	}}
}

// Client is a sampling worker's view of the distributed graph store. It
// groups per-hop requests by owning server and issues them concurrently,
// the batching discipline AliGraph workers use. All request methods take a
// context: cancellation and deadlines propagate through every per-server
// fan-out down to the transport.
type Client struct {
	transport Transport
	part      Partitioner
	local     int // co-located partition, -1 when fully remote
	meta      MetaResponse
	Traffic   TrafficStats
	Access    trace.AccessStats
	// Res tallies resilience events ("cluster.resilience"): retries,
	// breaker transitions, failovers, and lost shards.
	Res ResilienceStats
	// res executes calls under the WithResilience policy; nil means the
	// legacy fail-fast path.
	res *resilience
	// partial enables PartialResults degradation (set via WithResilience).
	partial bool
	// tracer, when set (WithTracer), records the per-hop latency breakdown
	// — batch, RPC, wire, server — and resilience events; every request
	// then carries its trace ID in the frame header.
	tracer *obs.Tracer
	// Pack tallies the client's frames ("cluster.pack"): count, raw-vs-wire
	// bytes, BDI ratio, attribute dedupe hits.
	Pack PackStats
	// Lay tallies the elastic-layout control plane ("cluster.layout"):
	// epoch gauge, swaps, joins, drains, migrations, dual-home requests,
	// probe failures.
	Lay LayoutStats
	// layout is the live epoch-versioned routing table; readers load it
	// atomically, the control-plane methods (serialized by layoutMu) swap
	// it. Always non-nil after construction.
	layout atomic.Pointer[Layout]
	// initLayout holds the WithLayout request until construction.
	initLayout *Layout
	// layoutMu serializes layout transitions (ApplyLayout, AddReplica,
	// DrainReplica, MigratePartition); it is never taken on the data path.
	layoutMu sync.Mutex
	// loads counts cumulative requests per partition — the hot-shard
	// detector's input.
	loads []atomic.Int64
	// inflight counts per-endpoint calls on the wire so drains can wait
	// for them.
	inflight inflightTracker
	// apiKey, when set (WithAPIKey), rides in every outgoing frame's header
	// for gateway-fronted servers.
	apiKey string
}

// ClientOption customizes a Client at construction.
type ClientOption func(*Client)

// WithResilience enables the fault-tolerance policy: bounded retries with
// backoff + jitter, per-endpoint circuit breakers, replica failover, and
// (when cfg.PartialResults is set) degraded batches instead of fail-closed
// fan-outs.
func WithResilience(cfg ResilienceConfig) ClientOption {
	return func(c *Client) {
		c.res = newResilience(cfg, &c.Res)
		c.partial = cfg.PartialResults
	}
}

// WithTracer attaches a hop tracer. Each request then carries its trace ID
// in the frame header, the server's handling time comes back in the reply
// header, and the tracer splits wire time from server time.
func WithTracer(tr *obs.Tracer) ClientOption {
	return func(c *Client) { c.tracer = tr }
}

// PackingConfig has no fields left.
//
// Deprecated: it exists so WithPacking(PackingConfig{}) compiles.
type PackingConfig struct{}

// WithPacking selects nothing: every client sends each fetch as one
// sectioned OpPacked frame.
//
// Deprecated: kept, with Client.Packing, only because bench/ calls both and
// a simplification may not edit the benchmark; the next benchmark change
// drops them.
func WithPacking(PackingConfig) ClientOption { return func(*Client) {} }

// WithAPIKey puts the key in the header of every outgoing frame — bootstrap
// meta fetch included — for talking to servers fronted by a
// gateway.WireGate. A key over the header's 255-byte bound panics at the
// first encode, which is the bootstrap fetch.
func WithAPIKey(key string) ClientOption {
	return func(c *Client) { c.apiKey = key }
}

// DefaultBootstrapTimeout bounds the NewClient meta fetch when the caller's
// context carries no deadline.
const DefaultBootstrapTimeout = 10 * time.Second

// NewClient builds a client and fetches cluster metadata from partition 0,
// bounded by DefaultBootstrapTimeout and retried through the default retry
// policy. local names the co-located partition (-1 when the worker runs on
// a machine with no graph shard).
func NewClient(t Transport, p Partitioner, local int) (*Client, error) {
	return NewClientContext(context.Background(), t, p, local)
}

// NewClientContext builds a client and fetches cluster metadata from
// partition 0. The bootstrap fetch is bounded by ctx (with
// DefaultBootstrapTimeout applied when ctx has no deadline) and retried
// through the configured resilience policy — or the default retry policy
// when none is configured — so a briefly-unready server 0 does not fail
// cluster startup.
func NewClientContext(ctx context.Context, t Transport, p Partitioner, local int, opts ...ClientOption) (*Client, error) {
	c := &Client{transport: t, part: p, local: local}
	for _, o := range opts {
		o(c)
	}
	if c.res != nil {
		if err := c.res.cfg.Replicas.Validate(p.Servers()); err != nil {
			return nil, err
		}
		// Options apply in any order; bind the tracer after all have run.
		c.res.tracer = c.tracer
	}
	// The layout is the routing source of truth from the first request:
	// WithLayout wins, else the resilience config's ReplicaMap (every
	// endpoint serving) and finally the identity layout. The resilience
	// layer re-resolves its endpoint set from it at the top of every pass,
	// so a mid-flight epoch swap redirects retries without touching the
	// request already on the wire.
	initLay := c.initLayout
	if initLay != nil {
		if c.res == nil {
			return nil, errors.New("cluster: WithLayout requires WithResilience")
		}
	} else {
		var m ReplicaMap
		if c.res != nil {
			m = c.res.cfg.Replicas
		}
		var lerr error
		if initLay, lerr = NewLayout(p.Servers(), m); lerr != nil {
			return nil, lerr
		}
	}
	{
		norm, lerr := initLay.normalized()
		if lerr != nil {
			return nil, lerr
		}
		if lerr := norm.Validate(p.Servers()); lerr != nil {
			return nil, lerr
		}
		c.layout.Store(norm)
	}
	c.loads = make([]atomic.Int64, p.Servers())
	c.Lay.mu.Lock()
	c.Lay.epoch = func() uint64 { return c.layout.Load().Epoch }
	c.Lay.mu.Unlock()
	if c.res != nil {
		c.res.routes = c.routableEndpoints
		c.res.live = func(ep int) bool { return c.layout.Load().Contains(ep) }
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, DefaultBootstrapTimeout)
		defer cancel()
	}
	boot := c.res
	if boot == nil {
		boot = newResilience(ResilienceConfig{Retry: DefaultRetryPolicy()}, &c.Res)
	}
	ctx, h := c.header(ctx)
	raw, err := boot.call(ctx, 0, EncodeMetaRequest(h), c.invoke)
	if c.res == nil {
		// The bootstrap-only resilience installed its breaker gauge on
		// c.Res; drop it so a policy-less client does not keep reporting
		// gauges from a discarded breaker map.
		c.Res.mu.Lock()
		c.Res.breakers = nil
		c.Res.mu.Unlock()
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: meta fetch: %w", err)
	}
	// A peer on another protocol version fails here, for good: its reply's
	// header does not parse, and the error names both versions.
	c.meta, err = DecodeMetaResponse(raw)
	mem.Bytes.Recycle(raw)
	if err != nil {
		return nil, fmt.Errorf("cluster: meta fetch: %w", err)
	}
	if c.meta.Partitions != p.Servers() {
		return nil, fmt.Errorf("cluster: server reports %d partitions, client configured %d", c.meta.Partitions, p.Servers())
	}
	return c, nil
}

// Packing reports true: OpPacked is the only data frame.
//
// Deprecated: it distinguishes nothing and remains only because bench/
// calls it; see WithPacking.
func (c *Client) Packing() bool { return true }

// NumNodes returns the global node count.
func (c *Client) NumNodes() int64 { return c.meta.NumNodes }

// AttrLen returns the attribute length.
func (c *Client) AttrLen() int { return c.meta.AttrLen }

// NegotiatedVersion returns the protocol version the bootstrap peer
// speaks; bootstrap rejects every version but this build's.
func (c *Client) NegotiatedVersion() int { return ProtoVersion }

// call issues one request to the partition's serving endpoint(s). With a
// resilience policy it retries, fails over to replicas, and consults
// circuit breakers; without one it is a single fail-fast transport call.
// The RPC hop spans the whole policy run — backoff waits and failovers
// included — so rpc minus wire minus server is the resilience overhead.
func (c *Client) call(ctx context.Context, partition int, req []byte) ([]byte, error) {
	if c.tracer != nil {
		var id obs.TraceID
		ctx, id = obs.EnsureTrace(ctx)
		start := time.Now()
		defer func() { c.tracer.Observe(id, obs.HopRPC, start, time.Since(start)) }()
	}
	if partition >= 0 && partition < len(c.loads) {
		c.loads[partition].Add(1)
	}
	// Dual-home accounting is one atomic load plus a bool index — the
	// layout indirection stays off the steady-state allocation path.
	if l := c.layout.Load(); l != nil && l.DualHome(partition) {
		c.Lay.add(&c.Lay.snap.DualHomeRequests)
	}
	if c.res != nil {
		return c.res.call(ctx, partition, req, c.invoke)
	}
	return c.invoke(ctx, partition, req)
}

// header builds the header for a request sent under ctx: the tenant key if
// the client holds one and, with tracing on, ctx's trace ID (minted here if
// ctx has none; the returned context carries it). Callers encode with it
// before c.call, because every retry and failover pass resends the same
// frame bytes.
func (c *Client) header(ctx context.Context) (context.Context, Header) {
	h := Header{Key: c.apiKey}
	if c.tracer != nil {
		var id obs.TraceID
		ctx, id = obs.EnsureTrace(ctx)
		h.Traced, h.Trace = true, uint64(id)
	}
	return ctx, h
}

// invoke performs one raw transport call against an endpoint, recording
// wire traffic on success. With tracing on, the reply header carries the
// server's handling time, and the remainder of the round trip is recorded
// as the wire hop.
func (c *Client) invoke(ctx context.Context, endpoint int, req []byte) ([]byte, error) {
	start := time.Now()
	c.inflight.enter(endpoint)
	resp, err := c.transport.Call(ctx, endpoint, req)
	c.inflight.exit(endpoint)
	if err != nil {
		return nil, err
	}
	c.Traffic.record(len(req), len(resp), endpoint != c.local)
	if c.tracer == nil {
		return resp, nil
	}
	total := time.Since(start)
	h, _, err := ParseHeader(resp)
	if err != nil {
		return nil, err
	}
	if id, ok := obs.FromContext(ctx); ok && h.Traced {
		serverTime := time.Duration(h.Trace)
		c.tracer.Observe(id, obs.HopServer, start, serverTime)
		c.tracer.Observe(id, obs.HopWire, start, max(total-serverTime, 0))
	}
	return resp, nil
}

// fetch sends sub as a one-sub OpPacked frame under the caller's own ctx and
// hands the shard's answer to use. send is c.call for a partition — the
// resilient path, so the frame is retried, failed over and breaker-gated as
// a unit — or c.invoke for one endpoint, bypassing routing (the layout
// probe). A sub the shard rejected comes back as its *ServerError. The
// request frame is recycled once send returns, after its last pass; the
// reply frame once use returns: use keeps no attribute payload.
func (c *Client) fetch(ctx context.Context, target int, sub PackedSubRequest, send invokeFunc, use func(PackedSubResponse) error) error {
	// The header is fixed before the frame is encoded: the trace ID and the
	// tenant key travel inside the bytes every attempt shares.
	ctx, h := c.header(ctx)
	h.BDI = true
	start := time.Now()
	frame, err := encodePackedRequest(h, []PackedSubRequest{sub}, &c.Pack.Codec)
	if err != nil {
		return err
	}
	c.observeCodec(h, start)
	c.Pack.frames.Add(1)
	c.Pack.rawReq.Add(int64(rawRequestBytes(sub)))
	c.Pack.wireReq.Add(int64(len(frame)))
	raw, err := send(ctx, target, frame)
	mem.Bytes.Recycle(frame)
	if err != nil {
		return err
	}
	defer mem.Bytes.Recycle(raw)
	start = time.Now()
	resps, err := DecodePackedResponse(raw, target, &c.Pack.Codec)
	if err == nil && len(resps) != 1 {
		err = fmt.Errorf("cluster: frame answered %d subs, sent 1", len(resps))
	}
	if err != nil {
		return err
	}
	c.observeCodec(h, start)
	if resps[0].Err != nil {
		return resps[0].Err
	}
	c.Pack.rawResp.Add(int64(rawResponseBytes(resps[0])))
	c.Pack.wireResp.Add(int64(len(raw)))
	return use(resps[0])
}

// observeCodec records encode or decode time since start as a compress hop
// of the frame's trace.
func (c *Client) observeCodec(h Header, start time.Time) {
	if c.tracer != nil {
		c.tracer.Observe(obs.TraceID(h.Trace), obs.HopCompress, start, time.Since(start))
	}
}

// fanout groups vs by owning shard and runs fetch once per non-empty group,
// all groups concurrently; pos maps a group's entries back to their
// positions in vs. It returns only after every fetch has, so nothing
// touches the caller's buffers — or the pooled groups — afterwards, and
// reduces the per-shard errors through reduceFanout.
func (c *Client) fanout(ctx context.Context, vs []graph.NodeID, fetch func(s int, grp []graph.NodeID, pos []uint32) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	grp, pos, off := GroupByOwner(c.part, vs)
	defer func() { mem.IDs.Put(grp); mem.U32s.Put(pos); mem.U32s.Put(off) }()
	errs := make([]error, len(off)-1)
	var wg sync.WaitGroup
	for s := range errs {
		lo, hi := off[s], off[s+1]
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(s int, grp []graph.NodeID, pos []uint32) {
			defer wg.Done()
			errs[s] = fetch(s, grp, pos)
		}(s, grp[lo:hi:hi], pos[lo:hi:hi])
	}
	wg.Wait()
	return c.reduceFanout(ctx, errs)
}

// failed reports whether err is an outright failure rather than nil or a
// *PartialError degradation.
func failed(err error) bool {
	_, partial := AsPartial(err)
	return err != nil && !partial
}

// reduceFanout reduces a fan-out's per-partition error slice. When the
// context is done, ctx.Err() wins so callers see context.Canceled /
// DeadlineExceeded rather than whichever transport error raced first.
// Otherwise, with PartialResults enabled the failures degrade into a
// *PartialError annotation; without it every failed server is reported via
// errors.Join — never just the lowest-indexed one.
func (c *Client) reduceFanout(ctx context.Context, errs []error) error {
	var shards []ShardError
	for s, err := range errs {
		if err != nil {
			shards = append(shards, ShardError{Server: s, Err: err})
		}
	}
	if len(shards) == 0 {
		return nil
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	if c.partial {
		c.Res.addN(&c.Res.snap.ShardErrors, len(shards))
		return &PartialError{Shards: shards, part: c.part}
	}
	joined := make([]error, len(shards))
	for i, s := range shards {
		joined[i] = fmt.Errorf("server %d: %w", s.Server, s.Err)
	}
	return errors.Join(joined...)
}

// NeighborsBatch and AttrsBatch implement the batch-first sampler.Store
// interface and are the client's whole fetch path: group by owner, one frame
// per owning shard (fetch), each decoded reply scattered straight into dst.
// Both keep one contract: on a nil or *PartialError return every element of
// dst is defined — positions owned by lost shards are nil / zero-filled
// whatever dst held on entry — and on any other error dst is cleared.

// NeighborsBatch fills dst[i] with vs[i]'s adjacency list. The lists alias
// the decoded replies and must not be modified.
func (c *Client) NeighborsBatch(ctx context.Context, dst [][]graph.NodeID, vs []graph.NodeID) error {
	err := c.fanout(ctx, vs, func(s int, grp []graph.NodeID, pos []uint32) error {
		lists, err := c.neighborLists(ctx, s, grp, c.call)
		if err != nil {
			for _, p := range pos {
				dst[p] = nil
			}
			return err
		}
		ids := 0
		for i, l := range lists {
			dst[pos[i]] = l
			ids += len(l)
		}
		// Offset/degree lookup, then per-entry pointer chasing: each list
		// is one 16 B access and each neighbor ID an individual
		// fine-grained 8 B indirect one — the access class Figure 2(c)
		// counts — recorded for the whole reply at once.
		c.Access.Record(trace.AccessStructure, len(lists)+ids, 16*len(lists)+8*ids, s != c.local)
		return nil
	})
	if failed(err) {
		clear(dst)
	}
	return err
}

// neighborLists fetches grp's adjacency lists from target through send (see
// fetch), one fresh list per ID: none aliases the reply frame.
func (c *Client) neighborLists(ctx context.Context, target int, grp []graph.NodeID, send invokeFunc) (lists [][]graph.NodeID, err error) {
	err = c.fetch(ctx, target, PackedSubRequest{Op: OpGetNeighbors, Neighbors: NeighborsRequest{IDs: grp}}, send, func(resp PackedSubResponse) error {
		if lists = resp.Neighbors.Lists; len(lists) != len(grp) {
			return fmt.Errorf("cluster: server %d returned %d lists for %d ids", target, len(lists), len(grp))
		}
		return nil
	})
	return lists, err
}

// AttrsBatch fills dst with vs's attribute vectors concatenated in order.
// Duplicate IDs within the call cost one fetch: the unique IDs go out, each
// vector lands at its ID's first position in dst, and later positions copy
// from there.
func (c *Client) AttrsBatch(ctx context.Context, dst []float32, vs []graph.NodeID) error {
	al := c.meta.AttrLen
	// lead[i] is the first position in vs holding vs[i]; uniq and at are the
	// IDs and positions where lead[i] == i, in order.
	lead := mem.U32s.Get(len(vs))
	defer mem.U32s.Put(lead)
	at := mem.U32s.Get(len(vs))[:0]
	defer mem.U32s.Put(at)
	uniq := mem.IDs.Get(len(vs))[:0]
	defer mem.IDs.Put(uniq)
	// seen is an open-addressing table of first position+1 (0 = empty),
	// at least twice len(vs) so linear probes stay short.
	order := bits.Len(uint(max(2*len(vs), 2) - 1))
	seen := mem.U32s.GetZeroed(1 << order)
	mask := uint64(len(seen) - 1)
	for i, v := range vs {
		h := uint64(v) * 0x9e3779b97f4a7c15 >> (64 - order)
		for seen[h] != 0 && vs[seen[h]-1] != v {
			h = (h + 1) & mask
		}
		if seen[h] == 0 {
			seen[h] = uint32(i) + 1
			uniq, at = append(uniq, v), append(at, uint32(i))
		}
		lead[i] = seen[h] - 1
	}
	mem.U32s.Put(seen)
	c.Pack.dedup.Add(int64(len(vs) - len(uniq)))

	err := c.fanout(ctx, uniq, func(s int, grp []graph.NodeID, pos []uint32) error {
		err := c.fetch(ctx, s, PackedSubRequest{Op: OpGetAttrs, Attrs: AttrsRequest{IDs: grp}}, c.call, func(resp PackedSubResponse) error {
			if n := len(resp.Attrs.Payload) / 4; n != len(grp)*al {
				return fmt.Errorf("cluster: server %d returned %d attr floats for %d ids", s, n, len(grp))
			}
			for i, p := range pos {
				readFloats(dst[int(at[p])*al:][:al], resp.Attrs.Payload[i*al*4:])
			}
			return nil
		})
		if err != nil {
			for _, p := range pos {
				clear(dst[int(at[p])*al:][:al])
			}
		}
		return err
	})
	if failed(err) {
		clear(dst)
		return err
	}
	for i, p := range lead {
		if int(p) != i {
			copy(dst[i*al:][:al], dst[int(p)*al:][:al])
		}
	}
	// The characterization (Figure 2(c)) counts the sampler's requests:
	// every asked-for vector is one bulk access, folded on the wire or not.
	local := 0
	if c.local >= 0 {
		for _, v := range vs {
			if c.part.Owner(v) == c.local {
				local++
			}
		}
	}
	if local > 0 {
		c.Access.Record(trace.AccessAttribute, local, local*al*4, false)
	}
	if remote := len(vs) - local; remote > 0 {
		c.Access.Record(trace.AccessAttribute, remote, remote*al*4, true)
	}
	return err
}
