package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
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
	// res executes every call — data fetches, the bootstrap meta fetch and
	// admission probes — under the client's policy, routing by layout.
	res *resilience
	// policy holds the WithResilience request until construction; nil
	// means the failFast policy.
	policy *ResilienceConfig
	// setup is the pass count of the bootstrap fetch and admission probes:
	// the policy's, or DefaultRetryPolicy's without one.
	setup int
	// tracer, when set (WithTracer), records the per-hop latency breakdown
	// — batch, RPC, wire, server — and resilience events; every request
	// then carries its trace ID in the frame header.
	tracer *obs.Tracer
	// Pack tallies the client's frames ("cluster.pack"): count, raw-vs-wire
	// bytes, BDI ratio, attribute dedupe hits.
	Pack PackStats
	// Lay tallies the elastic-layout control plane ("cluster.layout"):
	// epoch gauge, swaps, joins, drains, migrations, probe failures.
	Lay LayoutStats
	// layout is the live epoch-versioned routing table, the client's only
	// one; readers load it atomically, the control-plane methods
	// (serialized by layoutMu) swap it. WithLayout seeds it; construction
	// stores a copy of it, or the identity layout. Always non-nil after
	// construction.
	layout atomic.Pointer[Layout]
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

// WithResilience sets the fault-tolerance policy: bounded retries with
// backoff + jitter, per-endpoint circuit breakers, and (when
// cfg.PartialResults is set) degraded batches instead of fail-closed
// fan-outs. Without it a client runs the failFast policy: one pass over
// the layout's serving endpoints, no retries, and no breaker that opens.
func WithResilience(cfg ResilienceConfig) ClientOption {
	return func(c *Client) { c.policy = &cfg }
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
// through the configured resilience policy — or the default retry policy's
// pass count when none is configured — so a briefly-unready server 0 does
// not fail cluster startup.
func NewClientContext(ctx context.Context, t Transport, p Partitioner, local int, opts ...ClientOption) (*Client, error) {
	c := &Client{transport: t, part: p, local: local}
	for _, o := range opts {
		o(c)
	}
	// The layout is the routing table from the first request: WithLayout's,
	// else the identity layout. It is deep-copied so the client never
	// shares mutable state with the caller's.
	lay := c.layout.Load()
	if lay == nil {
		var err error
		if lay, err = NewLayout(p.Servers(), nil); err != nil {
			return nil, err
		}
	}
	norm := lay.clone(lay.Epoch)
	if err := norm.Validate(p.Servers()); err != nil {
		return nil, err
	}
	c.layout.Store(norm)
	cfg, setup := failFast, DefaultRetryPolicy().MaxAttempts
	if c.policy != nil {
		cfg, setup = *c.policy, c.policy.Retry.withDefaults().MaxAttempts
	}
	c.res, c.setup = newResilience(cfg, &c.Res, &c.layout, c.tracer), setup
	c.loads = make([]atomic.Int64, p.Servers())
	c.Lay.mu.Lock()
	c.Lay.epoch = func() uint64 { return c.layout.Load().Epoch }
	c.Lay.mu.Unlock()
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, DefaultBootstrapTimeout)
		defer cancel()
	}
	ctx, h := c.header(ctx)
	raw, err := c.res.call(ctx, c.setup, 0, EncodeMetaRequest(h), c.invoke)
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

// call issues one request to the partition's serving endpoints under the
// client's policy: passes over the layout's serving endpoints with
// failover and circuit breakers, retried with backoff when the policy
// allows more than one. The RPC hop spans the whole policy run — backoff
// waits and failovers included — so rpc minus wire minus server is the
// resilience overhead.
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
	return c.res.call(ctx, c.res.cfg.Retry.MaxAttempts, partition, req, c.invoke)
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
// probe). A neighbours reply's lists are appended to lists, the caller's
// scratch. A sub the shard rejected comes back as its *ServerError. The
// request frame is recycled once send returns, after its last pass; the
// reply frame once use returns: use keeps no attribute payload.
func (c *Client) fetch(ctx context.Context, target int, sub PackedSubRequest, lists [][]graph.NodeID, send invokeFunc, use func(PackedSubResponse) error) error {
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
	var one [1]PackedSubResponse
	resps, err := decodePackedResponse(one[:0], lists, raw, target, &c.Pack.Codec)
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

// fanout is one NeighborsBatch or AttrsBatch call's state: vs grouped by
// owning shard, the caller's destination, and one error slot per shard.
// It is pooled with a goroutine body per shard bound once, so a call
// allocates neither its errors, its WaitGroup nor its goroutines' closures.
type fanout struct {
	c   *Client
	ctx context.Context
	op  byte // OpGetNeighbors or OpGetAttrs
	// grp holds vs server by server, pos each entry's position in vs, and
	// off each server's start in grp (GroupByOwner).
	grp      []graph.NodeID
	pos, off []uint32
	// lists is NeighborsBatch's dst; attrs is AttrsBatch's, into which the
	// i-th ID fetched lands at row at[i].
	lists [][]graph.NodeID
	attrs []float32
	at    []uint32
	errs  []error
	wg    sync.WaitGroup
	runs  []func() // runs[s] fetches server s's group off the calling goroutine
}

var fanouts = sync.Pool{New: func() any { return new(fanout) }}

// run groups vs by owning shard and fetches every non-empty group, all
// groups concurrently: the last one on the calling goroutine, so a
// single-shard fetch starts no goroutine. It returns only after every
// fetch has, so nothing touches the caller's buffers — or the pooled
// groups — afterwards, and reduces the per-shard errors through
// reduceFanout. f goes back to the pool on the way out — not deferred, so
// a panicking fetch cannot hand f on while other fetches still use it.
func (f *fanout) run(vs []graph.NodeID) error {
	c, ctx := f.c, f.ctx
	if err := ctx.Err(); err != nil {
		f.release()
		return err
	}
	f.grp, f.pos, f.off = GroupByOwner(c.part, vs)
	n := len(f.off) - 1
	f.errs = slices.Grow(f.errs[:0], n)[:n]
	for len(f.runs) < n {
		s := len(f.runs)
		f.runs = append(f.runs, func() {
			f.errs[s] = f.fetch(s)
			f.wg.Done()
		})
	}
	last := n - 1
	for last >= 0 && f.off[last] == f.off[last+1] {
		last--
	}
	for s := 0; s < last; s++ {
		if f.off[s] < f.off[s+1] {
			f.wg.Add(1)
			go f.runs[s]()
		}
	}
	if last >= 0 {
		f.errs[last] = f.fetch(last)
	}
	f.wg.Wait()
	err := c.reduceFanout(ctx, f.errs)
	f.release()
	return err
}

// release hands f's pooled groups back and f to the pool, dropping every
// reference it held into the call.
func (f *fanout) release() {
	if f.grp != nil {
		mem.IDs.Put(f.grp)
		mem.U32s.Put(f.pos)
		mem.U32s.Put(f.off)
	}
	clear(f.errs)
	f.c, f.ctx, f.grp, f.pos, f.off = nil, nil, nil, nil, nil
	f.lists, f.attrs, f.at = nil, nil, nil
	fanouts.Put(f)
}

// fetch fetches server s's group into the call's destination.
func (f *fanout) fetch(s int) error {
	lo, hi := f.off[s], f.off[s+1]
	grp, pos := f.grp[lo:hi:hi], f.pos[lo:hi:hi]
	if f.op == OpGetNeighbors {
		return f.neighbors(s, grp, pos)
	}
	return f.attrsOf(s, grp, pos)
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
	if c.res.cfg.PartialResults {
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
	f := fanouts.Get().(*fanout)
	f.c, f.ctx, f.op, f.lists = c, ctx, OpGetNeighbors, dst
	err := f.run(vs)
	if failed(err) {
		clear(dst)
	}
	return err
}

// neighbors fetches server s's group of NeighborsBatch's IDs.
func (f *fanout) neighbors(s int, grp []graph.NodeID, pos []uint32) error {
	c := f.c
	scratch := mem.Lists.Get(len(grp))
	defer mem.Lists.Put(scratch)
	lists, err := c.neighborLists(f.ctx, s, grp, scratch[:0], c.call)
	if err != nil {
		for _, p := range pos {
			f.lists[p] = nil
		}
		return err
	}
	ids := 0
	for i, l := range lists {
		f.lists[pos[i]] = l
		ids += len(l)
	}
	// Offset/degree lookup, then per-entry pointer chasing: each list is one
	// 16 B access and each neighbor ID an individual fine-grained 8 B
	// indirect one — the access class Figure 2(c) counts — recorded for the
	// whole reply at once.
	c.Access.Record(trace.AccessStructure, len(lists)+ids, 16*len(lists)+8*ids, s != c.local)
	return nil
}

// neighborLists fetches grp's adjacency lists from target through send (see
// fetch), appending them to lists. Each list slices a fresh ID vector, none
// the reply frame.
func (c *Client) neighborLists(ctx context.Context, target int, grp []graph.NodeID, lists [][]graph.NodeID, send invokeFunc) ([][]graph.NodeID, error) {
	err := c.fetch(ctx, target, PackedSubRequest{Op: OpGetNeighbors, Neighbors: NeighborsRequest{IDs: grp}}, lists, send, func(resp PackedSubResponse) error {
		if lists = resp.Neighbors.Lists; len(lists) != len(grp) {
			return fmt.Errorf("cluster: server %d returned %d lists for %d ids", target, len(lists), len(grp))
		}
		return nil
	})
	return lists, err
}

// attrsOf fetches server s's group of AttrsBatch's unique IDs: the
// vector fetched for pos[i] lands at row at[pos[i]] of dst.
func (f *fanout) attrsOf(s int, grp []graph.NodeID, pos []uint32) error {
	c, dst := f.c, f.attrs
	al := c.meta.AttrLen
	err := c.fetch(f.ctx, s, PackedSubRequest{Op: OpGetAttrs, Attrs: AttrsRequest{IDs: grp}}, nil, c.call, func(resp PackedSubResponse) error {
		if n := len(resp.Attrs.Payload) / 4; n != len(grp)*al {
			return fmt.Errorf("cluster: server %d returned %d attr floats for %d ids", s, n, len(grp))
		}
		for i, p := range pos {
			readFloats(dst[int(f.at[p])*al:][:al], resp.Attrs.Payload[i*al*4:])
		}
		return nil
	})
	if err != nil {
		for _, p := range pos {
			clear(dst[int(f.at[p])*al:][:al])
		}
	}
	return err
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

	f := fanouts.Get().(*fanout)
	f.c, f.ctx, f.op, f.attrs, f.at = c, ctx, OpGetAttrs, dst, at
	err := f.run(uniq)
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
