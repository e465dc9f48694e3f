// Package pipeline is the software model of the AxE load unit (Section
// 4.2 Tech-3, Fig. 8): the budget of outstanding memory requests a
// sampling worker may keep in flight. The hardware hides remote-memory
// latency by moving vectors of requests under such a budget; this package
// does the same over the batch-first sampler.Store. A batch runs the
// level-synchronous kernel (sampler.KHop) — one vector request per hop
// carrying the whole batch's frontier, one for its attributes — and every
// one of those fetches passes through a window that counts node-requests
// across all of the executor's concurrent batches.
//
// Output is a pure function of (seed, root, hop, position): KHop draws
// every site from its own derived stream, so concurrent batches share no
// RNG and the result is byte-identical to the reference Sampler.Sample over
// the same graph.
package pipeline

import (
	"context"
	"slices"
	"sync"
	"time"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/obs"
	"lsdgnn/internal/sampler"
	"lsdgnn/internal/stats"
)

// DefaultWindow is the default in-flight window, in node-requests. The
// unit of issue is one hop of one batch, so the window must hold several
// of the widest fetch or concurrent batches take turns: at fanouts 10×10
// with 10 negatives a 32-root batch's attribute gather is 3 872 IDs, and
// 8 192 gives that the ≈2× head-room the old 256 gave a single root's
// 121-ID gather. Measured by BenchmarkConcurrentBatches (1/4/8 concurrent
// 32-root batches at 0 and 200 µs RTT; table in CHANGES.md, PR 22), 8 192
// is indistinguishable from an unshared window while 256 makes concurrent
// batches take turns (1.5–1.7× slower at 200 µs). A restated constant, not
// yet derived from RTT and service time (ROADMAP 6b) — and at this value the
// window binds on no BENCHMARK.json workload: each runs one batch at a
// time, so window_stalls_per_root reads 0 and inflight_peak 3 872. Two
// overlapping 32-root gathers fill it to 0.945, past the gateway's 0.9
// shed mark.
const DefaultWindow = 8192

// Config tunes the executor.
type Config struct {
	// Window bounds the outstanding node-requests (vertices whose
	// neighbor lists or attribute vectors are on the wire) across every
	// batch the executor is running. 0 means DefaultWindow.
	Window int
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	return c
}

// Executor runs k-hop sampling batches over a Store under one shared
// in-flight window. Safe for concurrent Sample calls.
type Executor struct {
	store  sampler.Store
	scfg   sampler.Config
	cfg    Config
	tracer *obs.Tracer
	slo    *stats.SLO
	stats  Stats
	win    window
	// untraced is the executor's windowed store for batches with no trace
	// ID, boxed once: converting a windowed to a Store allocates.
	untraced sampler.Store
}

// New builds an executor. Its output matches every other path (synchronous
// Sampler, cluster client, AxE engine) for the same config. Panics on an
// empty fanout list, like sampler.New.
func New(store sampler.Store, scfg sampler.Config, cfg Config) *Executor {
	if len(scfg.Fanouts) == 0 {
		panic("pipeline: no fanouts configured")
	}
	e := &Executor{store: store, scfg: scfg, cfg: cfg.withDefaults()}
	e.stats.setCapacity(e.cfg.Window)
	e.win.cap, e.win.stats = e.cfg.Window, &e.stats
	e.untraced = windowed{e: e}
	return e
}

// Occupancy returns the window's current fill fraction in [0, 1] — the
// live backpressure signal the serving gateway sheds on.
func (e *Executor) Occupancy() float64 { return e.stats.Occupancy() }

// Config returns the executor configuration (defaults applied).
func (e *Executor) Config() Config { return e.cfg }

// Stats exposes the executor's "pipeline" stats layer.
func (e *Executor) Stats() *Stats { return &e.stats }

// SetTracer attaches a hop tracer; each batch then records a HopBatch span
// and its fetches HopPipeWait (window stall) and HopPipeFetch (store round
// trip) spans, all under the batch's one trace ID.
func (e *Executor) SetTracer(tr *obs.Tracer) { e.tracer = tr }

// SetSLO classifies every Sample against a latency objective: completed
// batches (degraded included) are good iff within the threshold, aborted
// batches are bad.
func (e *Executor) SetSLO(s *stats.SLO) { e.slo = s }

// window is the executor's in-flight request budget, counted in
// node-requests across all concurrent batches. A fetch that does not fit
// queues, and the queue admits strictly in arrival order — small fetches do
// not barge past a wide one, so a wide fetch cannot starve. One wider than
// the whole window clamps to it and so admits alone rather than deadlocking.
type window struct {
	mu    sync.Mutex
	cap   int
	inUse int
	queue []*waiter // fetches waiting for slots, oldest first
	stats *Stats
}

// waiter is one queued fetch; ready closes once its n slots are held.
type waiter struct {
	n     int
	ready chan struct{}
}

// acquire blocks until n request slots are free and every earlier waiter
// has been admitted (or ctx expires), returning the clamped slot count
// actually held and how long it stalled.
func (w *window) acquire(ctx context.Context, n int) (held int, stalled time.Duration, err error) {
	if n > w.cap {
		n = w.cap
	}
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	w.mu.Lock()
	if len(w.queue) == 0 && w.cap-w.inUse >= n {
		w.inUse += n
		w.stats.recordInflight(w.inUse)
		w.mu.Unlock()
		return n, 0, nil
	}
	me := &waiter{n, make(chan struct{})}
	w.queue = append(w.queue, me)
	w.mu.Unlock()
	w.stats.windowStalls.Inc()
	start := time.Now()
	select {
	case <-me.ready:
		return n, time.Since(start), nil
	case <-ctx.Done():
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	select {
	case <-me.ready: // admitted as ctx expired: hand the slots back
		w.inUse -= n
	default:
		w.queue = slices.DeleteFunc(w.queue, func(q *waiter) bool { return q == me })
	}
	w.admit()
	return 0, time.Since(start), ctx.Err()
}

// admit hands free slots to queued fetches in arrival order, stopping at
// the first that does not fit. Callers hold w.mu.
func (w *window) admit() {
	for len(w.queue) > 0 && w.cap-w.inUse >= w.queue[0].n {
		w.inUse += w.queue[0].n
		close(w.queue[0].ready)
		w.queue = w.queue[1:]
	}
	w.stats.recordInflight(w.inUse)
}

func (w *window) release(n int) {
	w.mu.Lock()
	w.inUse -= n
	w.admit()
	w.mu.Unlock()
}

// Sample runs one k-hop batch: sampler.KHop over the windowed store, so
// the result layout and — for the same seed — contents are byte-identical
// to sampler.Sampler.Sample, whatever the window size
// or how many batches share it. Errors are KHop's: a ctx expiry returns
// (nil, ctx.Err()), a store error that says what it lost degrades only the
// roots that asked for it (*PartialError beside the layout-complete
// result), any other store error fails the batch.
func (e *Executor) Sample(ctx context.Context, roots []graph.NodeID) (*sampler.Result, error) {
	start := time.Now()
	var id obs.TraceID
	store := e.untraced
	if e.tracer != nil {
		// One ID for the whole batch: its fetches, and every rpc, wire and
		// server span under them, land on the trace the caller brought, or
		// on the one minted here.
		ctx, id = obs.EnsureTrace(ctx)
		store = windowed{e, id}
	}
	res, err := sampler.KHop(ctx, store, e.scfg, roots)
	dur := time.Since(start)
	e.tracer.ObserveErr(id, obs.HopBatch, "", start, dur, err != nil)
	if res == nil {
		e.stats.batchErrors.Inc()
		e.slo.ObserveLatency(dur, true)
		return nil, err
	}
	e.stats.batches.Inc()
	e.stats.batchLatency.ObserveDuration(dur)
	e.stats.batchWindow.ObserveDuration(dur)
	e.slo.ObserveLatency(dur, false)
	if pe, ok := sampler.AsPartial(err); ok {
		e.stats.degradedRoots.Add(int64(len(pe.Roots)))
	}
	return res, err
}

// windowed is one batch's view of the executor's store: every fetch is a
// task pushed through the shared window under the batch's trace ID.
type windowed struct {
	e  *Executor
	id obs.TraceID
}

func (w windowed) NumNodes() int64 { return w.e.store.NumNodes() }
func (w windowed) AttrLen() int    { return w.e.store.AttrLen() }

func (w windowed) NeighborsBatch(ctx context.Context, dst [][]graph.NodeID, vs []graph.NodeID) error {
	return w.fetch(ctx, len(vs), func() error { return w.e.store.NeighborsBatch(ctx, dst, vs) })
}

func (w windowed) AttrsBatch(ctx context.Context, dst []float32, vs []graph.NodeID) error {
	return w.fetch(ctx, len(vs), func() error { return w.e.store.AttrsBatch(ctx, dst, vs) })
}

// fetch pushes one task of n node-requests through the window, tracing
// the stall and the store round trip.
func (w windowed) fetch(ctx context.Context, n int, fn func() error) error {
	e := w.e
	held, stalled, err := e.win.acquire(ctx, n)
	if stalled > 0 {
		e.tracer.Observe(w.id, obs.HopPipeWait, time.Now().Add(-stalled), stalled)
	}
	if err != nil {
		return err
	}
	e.stats.issuedTasks.Inc()
	e.stats.issuedRequests.Add(int64(n))
	start := time.Now()
	err = fn()
	e.tracer.ObserveErr(w.id, obs.HopPipeFetch, "", start, time.Since(start), err != nil)
	e.win.release(held)
	e.stats.retiredTasks.Inc()
	e.stats.retiredRequests.Add(int64(n))
	return err
}
