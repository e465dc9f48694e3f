package main

import (
	"bufio"
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lsdgnn/internal/cluster"
	"lsdgnn/internal/gateway"
	"lsdgnn/internal/graph"
	"lsdgnn/internal/sampler"
)

// Span names, outside in. Request-scoped spans (gateway ⊃ pipeline ⊃
// fetch) share a request id carried in ctx. Below the packer one frame
// serves several requests, so frame-scoped spans (frame ⊃ handle) carry a
// frame id instead; store reads have no ctx at all (cluster.Backend is
// scalar) and are kept as exact aggregates plus a 1-in-storeSpanEvery
// sample of spans.
const (
	spanGateway  = "gateway.sample"
	spanPipeline = "pipeline.sample"
	spanFetch    = "cluster.fetch"
	spanFrame    = "cluster.frame"
	spanHandle   = "cluster.handle"
	spanRead     = "store.read"
	spanAppend   = "store.append"
)

// storeSpanEvery is the sampling stride of store.read spans: the scalar
// backend is called ~230 times per root, too often to keep every call.
const storeSpanEvery = 256

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's epoch.
type span struct {
	name       string
	id, parent uint64
	req        uint64 // request id (request-scoped) or frame id (frame-scoped)
	server     int    // serving partition for frame-scoped spans, -1 otherwise
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory until the run ends. It is switched on only
// for the traced windows, so the same process also yields the untraced
// throughput that trace.overhead_share compares against.
type tracer struct {
	on     atomic.Bool
	epoch  time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span

	// frames maps (server, hash of request frame) to the cluster.frame
	// span in flight, so the handler on the far side of the socket can
	// name its parent without touching the wire format.
	frames sync.Map
}

func newTracer() *tracer {
	// Sized for the busiest workload (~30k spans/s over the traced
	// windows) so appends do not reallocate while timing.
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<19)}
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far; recording more leaves them
// untouched.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[:len(t.spans):len(t.spans)]
}

type spanRef struct{ req, parent uint64 }

type spanCtxKey struct{}

func withSpan(ctx context.Context, r spanRef) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, r)
}

func spanFrom(ctx context.Context) spanRef {
	r, _ := ctx.Value(spanCtxKey{}).(spanRef)
	return r
}

// traceSample runs one gateway call under a gateway.sample root span.
func traceSample(ctx context.Context, t *tracer, gw *gateway.Gateway, key string, roots []graph.NodeID) (*sampler.Result, error) {
	if !t.enabled() {
		return gw.Sample(ctx, key, roots)
	}
	id := t.newID()
	start := t.now()
	res, err := gw.Sample(withSpan(ctx, spanRef{req: id, parent: id}), key, roots)
	t.record(span{name: spanGateway, id: id, req: id, server: -1, start: start, end: t.now()})
	return res, err
}

// tracedBackend wraps the gateway.Backend seam (gateway → pipeline).
func tracedBackend(t *tracer, inner gateway.Backend) gateway.Backend {
	return func(ctx context.Context, roots []graph.NodeID) (*sampler.Result, error) {
		if !t.enabled() {
			return inner(ctx, roots)
		}
		ref := spanFrom(ctx)
		id := t.newID()
		start := t.now()
		res, err := inner(withSpan(ctx, spanRef{req: ref.req, parent: id}), roots)
		t.record(span{name: spanPipeline, id: id, parent: ref.parent, req: ref.req, server: -1, start: start, end: t.now()})
		return res, err
	}
}

// fetchSeam wraps the sampler.Store seam (pipeline → cluster client).
type fetchSeam struct {
	inner sampler.Store
	t     *tracer
	calls atomic.Int64
}

func (f *fetchSeam) NumNodes() int64 { return f.inner.NumNodes() }
func (f *fetchSeam) AttrLen() int    { return f.inner.AttrLen() }

func (f *fetchSeam) NeighborsBatch(ctx context.Context, dst [][]graph.NodeID, vs []graph.NodeID) error {
	return f.fetch(ctx, func() error { return f.inner.NeighborsBatch(ctx, dst, vs) })
}

func (f *fetchSeam) AttrsBatch(ctx context.Context, dst []float32, vs []graph.NodeID) error {
	return f.fetch(ctx, func() error { return f.inner.AttrsBatch(ctx, dst, vs) })
}

func (f *fetchSeam) fetch(ctx context.Context, call func() error) error {
	f.calls.Add(1)
	if !f.t.enabled() {
		return call()
	}
	ref := spanFrom(ctx)
	start := f.t.now()
	err := call()
	f.t.record(span{name: spanFetch, id: f.t.newID(), parent: ref.parent, req: ref.req, server: -1, start: start, end: f.t.now()})
	return err
}

// countingTransport wraps the cluster.Transport seam (client → socket). It
// is installed on every run, traced or not: wire_bytes_per_root is an
// end-to-end metric and must not depend on the program's own counters.
type countingTransport struct {
	inner     cluster.Transport
	t         *tracer // nil on untraced runs
	frames    atomic.Int64
	reqBytes  atomic.Int64
	respBytes atomic.Int64
}

type frameKey struct {
	server int
	sum    uint64
}

func hashFrame(msg []byte) uint64 {
	h := fnv.New64a()
	h.Write(msg)
	return h.Sum64()
}

// Call implements cluster.Transport.
func (c *countingTransport) Call(ctx context.Context, server int, msg []byte) ([]byte, error) {
	if !c.t.enabled() {
		resp, err := c.inner.Call(ctx, server, msg)
		c.count(msg, resp)
		return resp, err
	}
	id := c.t.newID()
	key := frameKey{server, hashFrame(msg)}
	c.t.frames.Store(key, id)
	start := c.t.now()
	resp, err := c.inner.Call(ctx, server, msg)
	end := c.t.now()
	c.t.frames.Delete(key)
	c.count(msg, resp)
	c.t.record(span{name: spanFrame, id: id, req: id, server: server, start: start, end: end})
	return resp, err
}

func (c *countingTransport) count(msg, resp []byte) {
	c.frames.Add(1)
	c.reqBytes.Add(int64(len(msg)))
	c.respBytes.Add(int64(len(resp)))
}

// tracedHandler wraps the cluster.Handler seam (socket → shard server).
type tracedHandler struct {
	inner  cluster.Handler
	t      *tracer
	server int
}

// Handle implements cluster.Handler.
func (h *tracedHandler) Handle(ctx context.Context, msg []byte) ([]byte, error) {
	if !h.t.enabled() {
		return h.inner.Handle(ctx, msg)
	}
	var frame uint64
	if v, ok := h.t.frames.Load(frameKey{h.server, hashFrame(msg)}); ok {
		frame = v.(uint64)
	}
	start := h.t.now()
	resp, err := h.inner.Handle(ctx, msg)
	h.t.record(span{name: spanHandle, id: h.t.newID(), parent: frame, req: frame, server: h.server, start: start, end: h.t.now()})
	return resp, err
}

// tracedStore wraps the cluster.Backend seam (shard server → store). The
// interface is scalar and carries no ctx, so a read cannot name the frame
// it serves: the exact totals below feed the per-root aggregates, and one
// read in storeSpanEvery is also kept as a span.
type tracedStore struct {
	cluster.Backend
	t      *tracer
	server int
	reads  atomic.Int64
	readNS atomic.Int64
}

func (s *tracedStore) Neighbors(v graph.NodeID) []graph.NodeID {
	if !s.t.enabled() {
		return s.Backend.Neighbors(v)
	}
	start := s.t.now()
	out := s.Backend.Neighbors(v)
	s.read(start)
	return out
}

func (s *tracedStore) Attr(dst []float32, v graph.NodeID) []float32 {
	if !s.t.enabled() {
		return s.Backend.Attr(dst, v)
	}
	start := s.t.now()
	out := s.Backend.Attr(dst, v)
	s.read(start)
	return out
}

func (s *tracedStore) read(start int64) {
	end := s.t.now()
	s.readNS.Add(end - start)
	if s.reads.Add(1)%storeSpanEvery == 0 {
		s.t.record(span{name: spanRead, id: s.t.newID(), server: s.server, start: start, end: end})
	}
}

// interval is a half-open [start, end) stretch of time.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children cover.
// Children overlap (a batch keeps dozens of fetches in flight) and may
// stick out of the parent (a child begun just before the parent ended),
// so the covered part is the union of the children clipped to the parent,
// not the sum of their durations.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered, hi int64
	hi = parent.start
	for _, c := range clipped {
		if c.end <= hi {
			continue
		}
		if c.start > hi {
			hi = c.start
		}
		covered += c.end - hi
		hi = c.end
	}
	return parent.end - parent.start - covered
}

// spanIndex groups spans by name and children by parent id.
type spanIndex struct {
	byName   map[string][]span
	children map[uint64][]interval
}

func indexSpans(spans []span) spanIndex {
	ix := spanIndex{byName: map[string][]span{}, children: map[uint64][]interval{}}
	for _, s := range spans {
		ix.byName[s.name] = append(ix.byName[s.name], s)
		if s.parent != 0 {
			ix.children[s.parent] = append(ix.children[s.parent], interval{s.start, s.end})
		}
	}
	return ix
}

// durationsMS returns the durations of the named spans in milliseconds.
func (ix spanIndex) durationsMS(name string) []float64 {
	out := make([]float64, 0, len(ix.byName[name]))
	for _, s := range ix.byName[name] {
		out = append(out, float64(s.dur())/1e6)
	}
	return out
}

// selfMS returns the self times of the named spans in milliseconds.
func (ix spanIndex) selfMS(name string) []float64 {
	out := make([]float64, 0, len(ix.byName[name]))
	for _, s := range ix.byName[name] {
		out = append(out, float64(selfTime(interval{s.start, s.end}, ix.children[s.id]))/1e6)
	}
	return out
}

// writeSpans writes one JSON object per span to dir/trace_<workload>.jsonl.
func writeSpans(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, s := range spans {
		fmt.Fprintf(w, `{"name":%q,"start":%d,"end":%d,"parent":%d,"id":%d,"req":%d,"server":%d}`+"\n",
			s.name, s.start, s.end, s.parent, s.id, s.req, s.server)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
