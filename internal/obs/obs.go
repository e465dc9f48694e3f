// Package obs is the end-to-end observability layer of the serving
// pipeline: per-request trace IDs propagated through contexts (and, via
// the cluster wire protocol's frame header, across machines), per-hop
// latency histograms, and a bounded span log so one batch can be broken
// down hop by hop — the same per-stage measurement discipline the paper
// uses to validate its analytical model against the 4-card PoC (§7.2,
// Figure 15).
package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lsdgnn/internal/stats"
)

// TraceID identifies one end-to-end request (a sampling batch). Zero means
// "untraced".
type TraceID uint64

// traceBase seeds this process's ID space so spans from different workers
// don't collide when merged.
var traceBase = func() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return uint64(time.Now().UnixNano())
	}
	return binary.LittleEndian.Uint64(b[:])
}()

var traceCounter atomic.Uint64

// NewTraceID returns a fresh nonzero trace ID.
func NewTraceID() TraceID {
	for {
		if id := TraceID(traceBase + traceCounter.Add(1)); id != 0 {
			return id
		}
	}
}

type ctxKey struct{}

// WithTrace returns ctx annotated with the trace ID.
func WithTrace(ctx context.Context, id TraceID) context.Context {
	return context.WithValue(ctx, ctxKey{}, id)
}

// FromContext extracts the trace ID from ctx; ok is false when untraced.
func FromContext(ctx context.Context) (TraceID, bool) {
	id, ok := ctx.Value(ctxKey{}).(TraceID)
	return id, ok && id != 0
}

// EnsureTrace returns ctx carrying a trace ID, minting one if absent — the
// call sites at the top of the serving route (Gateway.Sample,
// Executor.Sample, System.Sample) use this so every batch is traceable
// without burdening callers.
func EnsureTrace(ctx context.Context) (context.Context, TraceID) {
	if id, ok := FromContext(ctx); ok {
		return ctx, id
	}
	id := NewTraceID()
	return WithTrace(ctx, id), id
}

// Hop names used across the serving route. One traced batch produces
// spans for a subset of these: the dispatcher hops only when it was timed
// on a modeled engine.
const (
	// HopBatch is one executor batch, end to end (Executor.Sample).
	HopBatch = "batch"
	// HopDispatchWait is time spent queued for a dispatcher worker slot.
	HopDispatchWait = "dispatch_wait"
	// HopEngine is the AxE engine's batch run.
	HopEngine = "engine"
	// HopRPC is one resilient partition call, retries and failover
	// included.
	HopRPC = "rpc"
	// HopWire is the transport round trip minus the server's handling time
	// (serialization + network + queueing at the peer).
	HopWire = "wire"
	// HopCompress is time spent encoding/decoding frames through the BDI
	// section codec, client side.
	HopCompress = "compress"
	// HopServer is the server-side Handle duration, as reported by the
	// peer in the reply's frame header.
	HopServer = "server"
	// HopPipeWait is time a pipeline fetch task spent blocked on the
	// executor's in-flight window (not enough request slots free).
	HopPipeWait = "pipe_wait"
	// HopPipeFetch is one pipeline fetch task's store round trip
	// (neighbor lists for one hop of a batch, or its attribute vectors).
	HopPipeFetch = "pipe_fetch"
	// HopGateWait is time an admitted batch spent queued in its tenant's
	// gateway queue before it took a backend slot.
	HopGateWait = "gate_wait"
)

// Span is one timed hop (or instantaneous event, Dur == 0) of a trace.
type Span struct {
	Trace TraceID
	Hop   string
	// Note annotates the span: endpoint index, retry attempt, event detail.
	Note  string
	Start time.Time
	Dur   time.Duration
	Err   bool
}

// DefaultSpanLog is how many completed spans the tracer retains.
const DefaultSpanLog = 512

// TracerConfig sizes a Tracer. The zero value gives the defaults: a
// DefaultSpanLog-sized ring keeping every trace.
type TracerConfig struct {
	// SpanLog is the span-ring capacity; ≤ 0 means DefaultSpanLog.
	SpanLog int
	// SampleRate keeps 1-in-n traces in the span log (histograms always
	// record); ≤ 1 keeps all.
	SampleRate int
}

// Tracer aggregates per-hop latency histograms (cumulative plus a rolling
// 10s window each), named event counters (retries, failovers, breaker
// transitions), and a bounded ring of recent spans. All methods are safe for
// concurrent use and no-ops on a nil receiver, so instrumentation sites
// need no guards.
type Tracer struct {
	mu     sync.Mutex
	hops   map[string]*stats.Histogram
	wins   map[string]*stats.WindowedHistogram
	order  []string
	events map[string]int64
	eOrder []string
	ring   []Span
	next   int
	filled bool
	// sample keeps 1-in-n traces in the span log (histograms always
	// record); 1 keeps all.
	sample uint64
}

// NewTracer returns a tracer with the default configuration.
func NewTracer() *Tracer { return NewTracerWith(TracerConfig{}) }

// NewTracerWith returns a tracer sized by cfg (zero fields take defaults).
func NewTracerWith(cfg TracerConfig) *Tracer {
	if cfg.SpanLog <= 0 {
		cfg.SpanLog = DefaultSpanLog
	}
	if cfg.SampleRate < 1 {
		cfg.SampleRate = 1
	}
	return &Tracer{
		hops:   make(map[string]*stats.Histogram),
		wins:   make(map[string]*stats.WindowedHistogram),
		events: make(map[string]int64),
		ring:   make([]Span, cfg.SpanLog),
		sample: uint64(cfg.SampleRate),
	}
}

// SetSampleRate keeps 1-in-n traces in the span log; n ≤ 1 keeps all.
// Histograms and event counters always record.
func (t *Tracer) SetSampleRate(n int) {
	if t == nil {
		return
	}
	if n < 1 {
		n = 1
	}
	t.mu.Lock()
	t.sample = uint64(n)
	t.mu.Unlock()
}

// hist returns the named hop's cumulative and windowed histograms,
// creating both on first use. Caller holds t.mu.
func (t *Tracer) hist(hop string) (*stats.Histogram, *stats.WindowedHistogram) {
	h, ok := t.hops[hop]
	if !ok {
		h = stats.NewHistogram()
		t.hops[hop] = h
		t.wins[hop] = &stats.WindowedHistogram{}
		t.order = append(t.order, hop)
	}
	return h, t.wins[hop]
}

// sampled reports whether id's spans go to the ring. Caller holds t.mu.
func (t *Tracer) sampled(id TraceID) bool {
	return t.sample <= 1 || uint64(id)%t.sample == 0
}

// push appends a span to the ring. Caller holds t.mu.
func (t *Tracer) push(s Span) {
	t.ring[t.next] = s
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.filled = true
	}
}

// Observe records one completed hop: its duration into the hop histogram
// and, for sampled traces, a span into the log. start is when the hop
// began.
func (t *Tracer) Observe(id TraceID, hop string, start time.Time, d time.Duration) {
	t.ObserveErr(id, hop, "", start, d, false)
}

// ObserveErr records one completed hop with a note and error flag.
func (t *Tracer) ObserveErr(id TraceID, hop, note string, start time.Time, d time.Duration, failed bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	h, win := t.hist(hop)
	h.ObserveDurationExemplar(d, uint64(id))
	win.ObserveDuration(d)
	if t.sampled(id) {
		t.push(Span{Trace: id, Hop: hop, Note: note, Start: start, Dur: d, Err: failed})
	}
	t.mu.Unlock()
}

// Event records an instantaneous named event (retry scheduled, breaker
// opened, failover): an event counter plus, for sampled traces, a
// zero-duration span.
func (t *Tracer) Event(id TraceID, kind, note string) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	if _, ok := t.events[kind]; !ok {
		t.eOrder = append(t.eOrder, kind)
	}
	t.events[kind]++
	if id != 0 && t.sampled(id) {
		t.push(Span{Trace: id, Hop: "event." + kind, Note: note, Start: now})
	}
	t.mu.Unlock()
}

// Hop returns the named hop's distribution snapshot (zero-valued when the
// hop has never been observed).
func (t *Tracer) Hop(name string) stats.HistogramSnapshot {
	if t == nil {
		return stats.HistogramSnapshot{Name: name, Unit: "sec"}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h, ok := t.hops[name]
	if !ok {
		return stats.HistogramSnapshot{Name: name, Unit: "sec"}
	}
	return h.Snapshot(name, "sec")
}

// HopWindow returns the named hop's rolling 10-second distribution — the
// per-hop signal a control loop or live report can act on, where Hop's
// cumulative view only describes history. Zero-valued when the hop has
// never been observed.
func (t *Tracer) HopWindow(name string) stats.HistogramSnapshot {
	if t == nil {
		return stats.HistogramSnapshot{Name: name, Unit: "sec"}
	}
	t.mu.Lock()
	w, ok := t.wins[name]
	t.mu.Unlock()
	if !ok {
		return stats.HistogramSnapshot{Name: name, Unit: "sec"}
	}
	return w.Snapshot(name, "sec")
}

// Hops returns the names of every observed hop, in first-observed order.
func (t *Tracer) Hops() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.order...)
}

// Spans returns the retained spans, oldest first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	if t.filled {
		out = append(out, t.ring[t.next:]...)
	}
	out = append(out, t.ring[:t.next]...)
	// Drop zero slots from a never-filled ring.
	kept := out[:0]
	for _, s := range out {
		if s.Trace != 0 || s.Hop != "" {
			kept = append(kept, s)
		}
	}
	return kept
}

// TraceSpans returns the retained spans of one trace in start order — the
// hop-by-hop breakdown of a single batch.
func (t *Tracer) TraceSpans(id TraceID) []Span {
	var out []Span
	for _, s := range t.Spans() {
		if s.Trace == id {
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// LastTrace returns the most recently started trace that has at least one
// retained span, with its spans; ok is false when the log is empty.
func (t *Tracer) LastTrace() (TraceID, []Span, bool) {
	spans := t.Spans()
	if len(spans) == 0 {
		return 0, nil, false
	}
	last := spans[len(spans)-1].Trace
	return last, t.TraceSpans(last), true
}

// StatsSnapshot implements stats.Source under the "obs.hops" layer: one
// histogram per hop plus event_* counters.
func (t *Tracer) StatsSnapshot() stats.Snapshot {
	snap := stats.Snapshot{Layer: "obs.hops"}
	if t == nil {
		return snap
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, kind := range t.eOrder {
		snap.Metrics = append(snap.Metrics, stats.Metric{
			Name: "event_" + kind, Value: float64(t.events[kind]),
		})
	}
	for _, hop := range t.order {
		snap.Hists = append(snap.Hists, t.hops[hop].Snapshot(hop, "sec"))
	}
	for _, hop := range t.order {
		snap.Hists = append(snap.Hists, t.wins[hop].Snapshot(hop+"_window_10s", "sec"))
	}
	return snap
}
