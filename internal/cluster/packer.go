package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/mof"
	"lsdgnn/internal/obs"
	"lsdgnn/internal/stats"
)

// Client side of packing (see packed.go): outstanding requests to the
// same shard wait in a short per-partition window and leave as one packed
// frame — the paper's Tech-1 multi-request packing — with the section
// codec applying Tech-2 BDI compression on the way out. Packing rides the
// normal resilient call path, so a packed frame is retried, failed over,
// and breaker-gated as a unit, while each sub-request still carries its
// own verdict (a shard rejecting one node ID fails only that sub-slot).

// PackingConfig tunes request packing.
type PackingConfig struct {
	// Window is how long the first queued request to a partition waits
	// for companions before the frame flushes. Zero selects 150µs.
	Window time.Duration
}

// A frame also flushes early once it holds MaxPackedRequests sub-requests
// or its queued sub-requests' plain-frame sizes add up to maxPackedBytes.
const maxPackedBytes = 1 << 20

// WithPacking enables request packing (with BDI-compressed sections) and
// the in-flight attribute coalescer.
func WithPacking(cfg PackingConfig) ClientOption {
	return func(c *Client) {
		c.pack = newPacker(c, cfg)
		c.coalesce = newAttrCoalescer()
	}
}

// PackStats counts the client's packing layer: frames vs logical requests,
// plain-frame-equivalent raw bytes vs what actually crossed, BDI's achieved
// ratio, and the attribute coalescer's saved fetches. Layer "cluster.pack".
type PackStats struct {
	frames    atomic.Int64
	subs      atomic.Int64
	rawReq    atomic.Int64 // plain-frame-equivalent request bytes
	wireReq   atomic.Int64 // packed request frame bytes
	rawResp   atomic.Int64 // plain-frame-equivalent response bytes
	wireResp  atomic.Int64 // packed response frame bytes
	dedup     atomic.Int64 // duplicate attr IDs folded within one fetch
	joins     atomic.Int64 // attr IDs joined onto another batch's in-flight fetch
	refetches atomic.Int64 // joins that failed and fell back to their own fetch
	// Codec is the section codec all packed frames on this client run
	// through; its counters yield the live compression ratio.
	Codec mof.VecCodec
}

// PackRatio returns average sub-requests per packed frame.
func (p *PackStats) PackRatio() float64 {
	f := p.frames.Load()
	if f == 0 {
		return 1
	}
	return float64(p.subs.Load()) / float64(f)
}

// Snapshot-style accessors used by experiments.
func (p *PackStats) Frames() int64   { return p.frames.Load() }
func (p *PackStats) Requests() int64 { return p.subs.Load() }
func (p *PackStats) RawBytes() int64 { return p.rawReq.Load() + p.rawResp.Load() }
func (p *PackStats) WireBytes() int64 {
	return p.wireReq.Load() + p.wireResp.Load()
}
func (p *PackStats) Dedup() int64 { return p.dedup.Load() }
func (p *PackStats) Joins() int64 { return p.joins.Load() }

// StatsSnapshot implements stats.Source under "cluster.pack".
func (p *PackStats) StatsSnapshot() stats.Snapshot {
	return stats.Snapshot{
		Layer: "cluster.pack",
		Metrics: []stats.Metric{
			{Name: "packed_frames", Value: float64(p.frames.Load()), Unit: "req"},
			{Name: "packed_requests", Value: float64(p.subs.Load()), Unit: "req"},
			{Name: "pack_ratio", Value: p.PackRatio(), Unit: "ratio"},
			{Name: "raw_bytes", Value: float64(p.RawBytes()), Unit: "bytes"},
			{Name: "wire_bytes", Value: float64(p.WireBytes()), Unit: "bytes"},
			{Name: "compression_ratio", Value: p.Codec.Ratio(), Unit: "ratio"},
			{Name: "attr_dedup_hits", Value: float64(p.dedup.Load()), Unit: "req"},
			{Name: "attr_coalesce_joins", Value: float64(p.joins.Load()), Unit: "req"},
			{Name: "attr_coalesce_refetches", Value: float64(p.refetches.Load()), Unit: "req"},
		},
	}
}

// subResult is one sub-request's outcome, delivered to its waiter.
type subResult struct {
	resp PackedSubResponse
	err  error // whole-frame failure (transport / decode), shared by all subs
}

// pendingSub is one queued logical request awaiting its frame.
type pendingSub struct {
	sub PackedSubRequest
	ch  chan subResult // buffered(1): a canceled waiter never blocks the flush
	ctx context.Context
	enq time.Time
}

// packQueue is one partition's open packing window.
type packQueue struct {
	pending []*pendingSub
	bytes   int
	timer   *time.Timer
}

// take drains the queue, disarming its window timer. Returns nil when a
// concurrent flush already drained it.
func (q *packQueue) take() []*pendingSub {
	if q.timer != nil {
		q.timer.Stop()
		q.timer = nil
	}
	batch := q.pending
	q.pending, q.bytes = nil, 0
	return batch
}

// subsPool recycles flush staging; every slice has capacity for a full
// packing window and re-enters the pool cleared and empty.
var subsPool = sync.Pool{New: func() any { return make([]PackedSubRequest, 0, MaxPackedRequests) }}

// packer coalesces same-shard requests into packed frames.
type packer struct {
	c      *Client
	window time.Duration
	st     *PackStats
	mu     sync.Mutex
	queues []*packQueue
}

func newPacker(c *Client, cfg PackingConfig) *packer {
	p := &packer{c: c, window: cfg.Window, st: &c.Pack, queues: make([]*packQueue, c.part.Servers())}
	if p.window <= 0 {
		p.window = 150 * time.Microsecond
	}
	for i := range p.queues {
		p.queues[i] = &packQueue{}
	}
	return p
}

// do queues sub for partition and waits for its packed round trip. The
// frame flushes when the window elapses, MaxPackedRequests subs are queued,
// or the queued bytes pass maxPackedBytes — whichever first. A canceled
// waiter returns immediately; its slot still travels (the frame is already
// committed) but delivery to it is dropped.
func (p *packer) do(ctx context.Context, partition int, sub PackedSubRequest) (PackedSubResponse, error) {
	if partition < 0 || partition >= len(p.queues) {
		return PackedSubResponse{}, fmt.Errorf("cluster: no partition %d to pack for", partition)
	}
	ps := &pendingSub{sub: sub, ch: make(chan subResult, 1), ctx: ctx, enq: time.Now()}
	p.mu.Lock()
	q := p.queues[partition]
	q.pending = append(q.pending, ps)
	q.bytes += plainRequestBytes(sub)
	var batch []*pendingSub
	if len(q.pending) >= MaxPackedRequests || q.bytes >= maxPackedBytes {
		batch = q.take()
	} else if q.timer == nil {
		q.timer = time.AfterFunc(p.window, func() { p.flushWindow(partition) })
	}
	p.mu.Unlock()
	if batch != nil {
		p.flush(partition, batch)
	}
	select {
	case r := <-ps.ch:
		return r.resp, r.err
	case <-ctx.Done():
		return PackedSubResponse{}, ctx.Err()
	}
}

// flushWindow is the window-timer callback.
func (p *packer) flushWindow(partition int) {
	p.mu.Lock()
	batch := p.queues[partition].take()
	p.mu.Unlock()
	if len(batch) > 0 {
		p.flush(partition, batch)
	}
}

// flushContext detaches the frame's round trip from any single waiter (a
// canceled batch must not abort its co-packed neighbors) while keeping the
// latest deadline any waiter carries.
func flushContext(batch []*pendingSub) (context.Context, context.CancelFunc) {
	var dl time.Time
	all := true
	for _, ps := range batch {
		d, ok := ps.ctx.Deadline()
		if !ok {
			all = false
			break
		}
		if d.After(dl) {
			dl = d
		}
	}
	if all {
		return context.WithDeadline(context.Background(), dl)
	}
	return context.WithCancel(context.Background())
}

// flush encodes one batch as a packed frame, runs it through the resilient
// call path, and delivers each sub-result to its waiter.
func (p *packer) flush(partition int, batch []*pendingSub) {
	now := time.Now()
	if tr := p.c.tracer; tr != nil {
		for _, ps := range batch {
			if id, ok := obs.FromContext(ps.ctx); ok {
				tr.Observe(id, obs.HopPack, ps.enq, now.Sub(ps.enq))
			}
		}
	}
	fail := func(err error) {
		for _, ps := range batch {
			ps.ch <- subResult{err: err}
		}
	}
	// The sub-request staging only lives until the encoder has copied it
	// into the frame, so it recycles across flushes (cleared on return: the
	// structs carry ID slices that must not stay pinned).
	subs := subsPool.Get().([]PackedSubRequest)[:len(batch)]
	rawReq := 0
	for i, ps := range batch {
		subs[i] = ps.sub
		rawReq += plainRequestBytes(ps.sub)
	}
	// The header is fixed before the frame is encoded: the trace ID and
	// the tenant key travel inside the bytes every attempt shares.
	ctx, cancel := flushContext(batch)
	defer cancel()
	ctx, h := p.c.header(ctx)
	h.BDI = true
	encStart := time.Now()
	frame, err := encodePackedRequest(h, subs, &p.st.Codec)
	clear(subs)
	subsPool.Put(subs[:0])
	if err != nil {
		fail(err)
		return
	}
	p.st.frames.Add(1)
	p.st.subs.Add(int64(len(batch)))
	p.st.rawReq.Add(int64(rawReq))
	p.st.wireReq.Add(int64(len(frame)))

	if p.c.tracer != nil {
		// The frame's own trace carries the rpc/wire/server hops; waiters
		// keep their pack hop under their own IDs.
		p.c.tracer.Observe(obs.TraceID(h.Trace), obs.HopCompress, encStart, time.Since(encStart))
	}
	raw, err := p.c.call(ctx, partition, frame)
	if err != nil {
		fail(err)
		return
	}
	decStart := time.Now()
	resps, err := DecodePackedResponse(raw, partition, &p.st.Codec)
	if err == nil && len(resps) != len(batch) {
		err = fmt.Errorf("cluster: packed frame answered %d of %d subs", len(resps), len(batch))
	}
	if err != nil {
		fail(err)
		return
	}
	if p.c.tracer != nil {
		p.c.tracer.Observe(obs.TraceID(h.Trace), obs.HopCompress, decStart, time.Since(decStart))
	}
	rawResp := 0
	for i, ps := range batch {
		rawResp += plainResponseBytes(resps[i])
		ps.ch <- subResult{resp: resps[i]}
	}
	p.st.rawResp.Add(int64(rawResp))
	p.st.wireResp.Add(int64(len(raw)))
}

// plainRequestBytes is the size of the plain frame sub would have been:
// the raw side of the wire ratio, and the size estimate the maxPackedBytes
// trigger adds up.
func plainRequestBytes(sub PackedSubRequest) int {
	switch sub.Op {
	case OpGetNeighbors:
		return 10 + len(sub.Neighbors.IDs)*8
	default:
		return 6 + len(sub.Attrs.IDs)*8
	}
}

// plainResponseBytes is the size of the plain frame resp would have been.
func plainResponseBytes(resp PackedSubResponse) int {
	if resp.Err != nil {
		return 1 + len(resp.Err.Error())
	}
	switch resp.Op {
	case OpGetNeighbors:
		n := 6
		for _, l := range resp.Neighbors.Lists {
			n += 4 + len(l)*8
		}
		return n
	default:
		return 10 + len(resp.Attrs.Attrs)*4
	}
}

// attrEntry is one node's in-flight attribute fetch: the lead batch fills
// vec (or err) and closes done; joining batches wait instead of refetching.
type attrEntry struct {
	done chan struct{}
	vec  []float32
	err  error
}

// attrCoalescer deduplicates concurrent attribute fetches for the same
// node (paper §3.4): strictly coalescing-only — an entry exists exactly
// while its fetch is in flight and is dropped the moment it resolves, so
// nothing is ever served stale.
type attrCoalescer struct {
	mu       sync.Mutex
	inflight map[graph.NodeID]*attrEntry
}

func newAttrCoalescer() *attrCoalescer {
	return &attrCoalescer{inflight: make(map[graph.NodeID]*attrEntry)}
}

// fetchAttrs is the coalescing front of getAttrsUncached, preserving its
// contract exactly: a layout-complete vector in id order, and on shard
// loss a *PartialError with zeroed slots. Duplicate IDs within the call
// cost one fetch; IDs another goroutine is already fetching join that
// flight. Joined fetches that fail are refetched by this caller — errors
// never propagate across batches, so a canceled lead cannot poison its
// joiners.
func (c *Client) fetchAttrs(ctx context.Context, ids []graph.NodeID) ([]float32, error) {
	co := c.coalesce
	if co == nil {
		return c.getAttrsUncached(ctx, ids)
	}
	al := c.meta.AttrLen
	pos := make(map[graph.NodeID][]int, len(ids))
	var order []graph.NodeID
	for i, v := range ids {
		if _, ok := pos[v]; !ok {
			order = append(order, v)
		}
		pos[v] = append(pos[v], i)
	}
	c.Pack.dedup.Add(int64(len(ids) - len(order)))

	var leads, joins []graph.NodeID
	entries := make(map[graph.NodeID]*attrEntry, len(order))
	co.mu.Lock()
	for _, v := range order {
		if e, ok := co.inflight[v]; ok {
			joins = append(joins, v)
			entries[v] = e
			continue
		}
		e := &attrEntry{done: make(chan struct{})}
		co.inflight[v] = e
		leads = append(leads, v)
		entries[v] = e
	}
	co.mu.Unlock()
	c.Pack.joins.Add(int64(len(joins)))

	out := make([]float32, len(ids)*al)
	var shards []ShardError

	// fill copies one node's fetched vector into every position asking
	// for it; lost-shard slots stay zeroed, matching getAttrsUncached.
	fill := func(v graph.NodeID, vec []float32) {
		for _, p := range pos[v] {
			copy(out[p*al:], vec)
		}
	}
	// fetch runs one uncached fetch for want, resolving lead entries when
	// resolve is set. Returns the non-partial error, if any.
	fetch := func(want []graph.NodeID, resolve bool) error {
		vec, err := c.getAttrsUncached(ctx, want)
		pe, partial := AsPartial(err)
		var failed map[int]bool
		if partial {
			failed = pe.Failed()
			shards = append(shards, pe.Shards...)
		}
		if resolve {
			co.mu.Lock()
			for j, v := range want {
				e := entries[v]
				switch {
				case err == nil, partial && !failed[c.part.Owner(v)]:
					e.vec = vec[j*al : (j+1)*al]
				default:
					e.err = err
				}
				close(e.done)
				delete(co.inflight, v)
			}
			co.mu.Unlock()
		}
		if err != nil && !partial {
			return err
		}
		for j, v := range want {
			if partial && failed[c.part.Owner(v)] {
				continue
			}
			fill(v, vec[j*al:(j+1)*al])
		}
		return nil
	}

	if len(leads) > 0 {
		if err := fetch(leads, true); err != nil {
			return nil, err
		}
	}
	var refetch []graph.NodeID
	for _, v := range joins {
		e := entries[v]
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if e.err != nil {
			refetch = append(refetch, v)
			continue
		}
		fill(v, e.vec)
	}
	if len(refetch) > 0 {
		c.Pack.refetches.Add(int64(len(refetch)))
		if err := fetch(refetch, false); err != nil {
			return nil, err
		}
	}
	if len(shards) > 0 {
		return out, &PartialError{Shards: dedupShards(shards)}
	}
	return out, nil
}
