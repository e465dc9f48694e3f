package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/mem"
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
	// Both ops share one layout — header, count, IDs — and a sub sets only
	// its own op's ID list.
	return 6 + (len(sub.Neighbors.IDs)+len(sub.Attrs.IDs))*8
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

// attrEntry is one node's attribute fetch. While it is in flight other
// calls may join it instead of refetching: the lead call sets vec and ok,
// then closes done. A call's lead entries all resolve at the same instant,
// so they sit in one slab and share one done channel.
type attrEntry struct {
	done chan struct{}
	// vec aliases the decoded reply that carried it (GC-owned, never
	// pooled): joiners may still be copying from it after the lead returns.
	vec []float32
	// ok says, once done is closed, whether vec arrived; a joiner that
	// reads false refetches the node itself.
	ok bool
}

// attrCoalescer deduplicates concurrent attribute fetches for the same
// node — the paper's coalescing-only cache (§4.2 Tech-4): an entry exists
// exactly while its fetch is in flight and is dropped the moment it
// resolves, so nothing is ever served stale.
type attrCoalescer struct {
	mu       sync.Mutex
	inflight map[graph.NodeID]*attrEntry
}

func newAttrCoalescer() *attrCoalescer {
	return &attrCoalescer{inflight: make(map[graph.NodeID]*attrEntry)}
}

// fetchAttrs is AttrsBatch behind the coalescer, under the same dst
// contract. Duplicate IDs within the call cost one fetch; IDs another
// goroutine is already fetching join that flight. Joined fetches that fail
// are refetched by this caller — errors never propagate across batches, so
// a canceled lead cannot poison its joiners.
func (c *Client) fetchAttrs(ctx context.Context, dst []float32, ids []graph.NodeID) error {
	co, al := c.coalesce, c.meta.AttrLen
	// Per-call state is flat: the unique IDs in first-occurrence order,
	// each position's index into them, and one entry pointer per unique ID.
	slot := mem.U32s.Get(len(ids))
	defer mem.U32s.Put(slot)
	uniq := mem.IDs.Get(len(ids))[:0]
	defer mem.IDs.Put(uniq)
	first := make(map[graph.NodeID]uint32, len(ids))
	for i, v := range ids {
		s, seen := first[v]
		if !seen {
			s = uint32(len(uniq))
			first[v] = s
			uniq = append(uniq, v)
		}
		slot[i] = s
	}
	c.Pack.dedup.Add(int64(len(ids) - len(uniq)))

	leads := mem.IDs.Get(len(uniq))[:0]
	defer mem.IDs.Put(leads)
	entries := make([]*attrEntry, len(uniq))
	// Sized up front: appends never move entries other calls point at.
	slab := make([]attrEntry, 0, len(uniq))
	done := make(chan struct{})
	var joins []uint32 // slots waiting on another call's flight
	co.mu.Lock()
	for s, v := range uniq {
		if e, ok := co.inflight[v]; ok {
			entries[s] = e
			joins = append(joins, uint32(s))
			continue
		}
		slab = append(slab, attrEntry{done: done})
		entries[s] = &slab[len(slab)-1]
		co.inflight[v] = entries[s]
		leads = append(leads, v)
	}
	co.mu.Unlock()
	c.Pack.joins.Add(int64(len(joins)))

	var shards []ShardError
	// fetch fills into[i] with want[i]'s vector; a degraded fan-out leaves
	// the lost shards' entries !ok and is remembered in shards.
	fetch := func(want []graph.NodeID, into []attrEntry) error {
		err := c.fanout(ctx, want, func(s int, grp []graph.NodeID, pos []int) error {
			vecs, err := c.attrVectors(ctx, s, grp)
			if err != nil {
				return err
			}
			for i, p := range pos {
				into[p].vec, into[p].ok = vecs[i*al:(i+1)*al], true
			}
			return nil
		})
		if pe, partial := AsPartial(err); partial {
			shards = append(shards, pe.Shards...)
			return nil
		}
		return err
	}

	if len(leads) > 0 {
		err := fetch(leads, slab)
		co.mu.Lock()
		for _, v := range leads {
			delete(co.inflight, v)
		}
		co.mu.Unlock()
		close(done)
		if err != nil {
			return err
		}
	}
	refetch := joins[:0]
	for _, s := range joins {
		select {
		case <-entries[s].done:
		case <-ctx.Done():
			return ctx.Err()
		}
		if !entries[s].ok {
			refetch = append(refetch, s)
		}
	}
	if len(refetch) > 0 {
		c.Pack.refetches.Add(int64(len(refetch)))
		want, own := make([]graph.NodeID, len(refetch)), make([]attrEntry, len(refetch))
		for i, s := range refetch {
			want[i], entries[s] = uniq[s], &own[i]
		}
		if err := fetch(want, own); err != nil {
			return err
		}
	}
	for i, s := range slot {
		if e := entries[s]; e.ok {
			copy(dst[i*al:(i+1)*al], e.vec)
		} else {
			clear(dst[i*al : (i+1)*al])
		}
	}
	if len(shards) > 0 {
		return &PartialError{Shards: dedupShards(shards), part: c.part}
	}
	return nil
}
