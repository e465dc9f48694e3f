package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"lsdgnn/internal/axe"
	"lsdgnn/internal/graph"
	"lsdgnn/internal/obs"
	"lsdgnn/internal/sampler"
	"lsdgnn/internal/stats"
)

// DispatcherConfig tunes batch scheduling across engines.
type DispatcherConfig struct {
	// Workers bounds how many batches run concurrently across all engines;
	// 0 defaults to 2× the engine count.
	Workers int
	// BatchTimeout is a per-batch deadline applied on top of the caller's
	// context; 0 disables it.
	BatchTimeout time.Duration
	// Tracer, when set, records per-batch queue wait and engine runtime as
	// dispatch/engine hops under the batch's trace ID.
	Tracer *obs.Tracer
	// SLO, when set, classifies every submitted batch against a latency
	// objective: good iff it completed within the threshold.
	SLO *stats.SLO
	// Admit, when set, gates every Submit before a worker slot or engine
	// is claimed. A non-nil error rejects the batch: Submit returns it
	// verbatim (typed errors like gateway.RateLimitError survive
	// errors.As) without consuming a slot, touching the SLO, or counting
	// the batch as degraded — rejections land on the separate
	// rejected_batches counter.
	Admit func(ctx context.Context, roots []graph.NodeID) error
}

// Dispatcher load-balances sampling batches across a set of AxE engines. It
// picks the engine with the fewest in-flight batches (round-robin between
// ties), bounds total concurrency with a worker pool, and applies an
// optional per-batch deadline. All engines share the same sampling seed, so
// results are layout-identical regardless of placement; only modeled timing
// differs.
type Dispatcher struct {
	engines []*axe.Engine
	cfg     DispatcherConfig
	slots   chan struct{}
	lat     *stats.Latency

	mu       sync.Mutex
	inflight []int64
	counts   []int64
	rr       int
	degraded int64
	rejected int64
	// active bounds pick() to the first active engines — the autoscaler's
	// knob. Deactivated engines finish their in-flight batches but take
	// no new ones.
	active int
}

// NewDispatcher builds a dispatcher over engines.
func NewDispatcher(engines []*axe.Engine, cfg DispatcherConfig) (*Dispatcher, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("core: dispatcher needs ≥1 engine")
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("core: negative worker count %d", cfg.Workers)
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2 * len(engines)
	}
	return &Dispatcher{
		engines:  engines,
		cfg:      cfg,
		slots:    make(chan struct{}, cfg.Workers),
		lat:      stats.NewLatency("core.dispatcher"),
		inflight: make([]int64, len(engines)),
		counts:   make([]int64, len(engines)),
		active:   len(engines),
	}, nil
}

// pick selects the least-loaded active engine, rotating between ties so
// idle engines all receive work.
func (d *Dispatcher) pick() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	best, bestLoad := -1, int64(1<<62)
	n := d.active
	for i := 0; i < n; i++ {
		e := (d.rr + i) % n
		if d.inflight[e] < bestLoad {
			best, bestLoad = e, d.inflight[e]
		}
	}
	d.rr = (best + 1) % n
	d.inflight[best]++
	d.counts[best]++
	return best
}

func (d *Dispatcher) release(engine int) {
	d.mu.Lock()
	d.inflight[engine]--
	d.mu.Unlock()
}

// Submit runs one batch on the best available engine. It blocks while the
// worker pool is saturated and honors ctx throughout: cancellation while
// queued returns immediately; cancellation mid-run abandons the batch (the
// engine finishes it in the background and the slot is then reclaimed).
func (d *Dispatcher) Submit(ctx context.Context, roots []graph.NodeID) (*sampler.Result, axe.BatchStats, error) {
	tr := d.cfg.Tracer
	var id obs.TraceID
	if tr != nil {
		ctx, id = obs.EnsureTrace(ctx)
	}
	start := time.Now()
	if err := ctx.Err(); err != nil {
		d.lat.ObserveError()
		d.cfg.SLO.Observe(false)
		return nil, axe.BatchStats{}, err
	}
	if d.cfg.Admit != nil {
		if err := d.cfg.Admit(ctx, roots); err != nil {
			// Rejected, not failed: no slot was held, no engine touched,
			// and the SLO only judges admitted work.
			d.mu.Lock()
			d.rejected++
			d.mu.Unlock()
			return nil, axe.BatchStats{}, err
		}
	}
	if d.cfg.BatchTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d.cfg.BatchTimeout)
		defer cancel()
	}
	select {
	case d.slots <- struct{}{}:
	case <-ctx.Done():
		d.lat.ObserveError()
		d.cfg.SLO.ObserveLatency(time.Since(start), true)
		return nil, axe.BatchStats{}, ctx.Err()
	}
	engine := d.pick()
	// Queue wait: from submission until a worker slot and an engine are
	// both held.
	tr.Observe(id, obs.HopDispatchWait, start, time.Since(start))

	type outcome struct {
		res *sampler.Result
		st  axe.BatchStats
	}
	done := make(chan outcome, 1)
	go func() {
		estart := time.Now()
		res, st := d.engines[engine].RunBatch(roots)
		// Recorded even for abandoned batches: the engine really did the
		// work, and the histogram should show it.
		tr.Observe(id, obs.HopEngine, estart, time.Since(estart))
		// Released before the outcome is published: a caller whose Submit
		// has returned must find its engine idle, or the next pick skips it.
		// An abandoned batch releases here too.
		d.release(engine)
		<-d.slots
		done <- outcome{res, st}
	}()
	select {
	case out := <-done:
		dur := time.Since(start)
		d.lat.ObserveTrace(dur, uint64(id))
		d.cfg.SLO.ObserveLatency(dur, false)
		return out.res, out.st, nil
	case <-ctx.Done():
		d.lat.ObserveError()
		d.cfg.SLO.ObserveLatency(time.Since(start), true)
		return nil, axe.BatchStats{}, ctx.Err()
	}
}

// RecordDegraded notes one batch that completed with partial results
// (lost shards degraded to empty neighborhoods) instead of failing —
// System.SampleSoftware surfaces cluster.PartialError here so the
// scheduling layer's report shows how much of the served load was
// degraded.
func (d *Dispatcher) RecordDegraded() {
	d.mu.Lock()
	d.degraded++
	d.mu.Unlock()
}

// Degraded returns how many batches completed with partial results.
func (d *Dispatcher) Degraded() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.degraded
}

// Rejected returns how many batches the Admit hook turned away.
func (d *Dispatcher) Rejected() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rejected
}

// Engines returns how many engines the dispatcher schedules over.
func (d *Dispatcher) Engines() int { return len(d.engines) }

// Active returns how many engines currently take new batches.
func (d *Dispatcher) Active() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.active
}

// SetActive resizes the live engine set to n, clamped to [1, Engines()],
// and returns the value actually applied. Engines beyond the active prefix
// finish their in-flight batches but receive no new work — the autoscaler's
// scale-down is a drain, not an abort. Implements gateway.EnginePool.
func (d *Dispatcher) SetActive(n int) int {
	if n < 1 {
		n = 1
	}
	if n > len(d.engines) {
		n = len(d.engines)
	}
	d.mu.Lock()
	d.active = n
	if d.rr >= n {
		d.rr = 0
	}
	d.mu.Unlock()
	return n
}

// Inflight returns how many batches are running across all engines right
// now — the numerator of the dispatcher's occupancy signal.
func (d *Dispatcher) Inflight() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	var sum int64
	for _, v := range d.inflight {
		sum += v
	}
	return int(sum)
}

// Capacity returns the worker-pool bound (maximum concurrent batches).
func (d *Dispatcher) Capacity() int { return d.cfg.Workers }

// Counts returns the cumulative batches dispatched to each engine.
func (d *Dispatcher) Counts() []int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]int64, len(d.counts))
	copy(out, d.counts)
	return out
}

// Latency exposes the dispatcher's batch latency recorder.
func (d *Dispatcher) Latency() *stats.Latency { return d.lat }

// StatsSnapshot implements stats.Source: batch latency plus the per-engine
// dispatch distribution under the "core.dispatcher" layer.
func (d *Dispatcher) StatsSnapshot() stats.Snapshot {
	snap := d.lat.StatsSnapshot()
	snap.Metrics = append(snap.Metrics, stats.Metric{
		Name:  "degraded_batches",
		Value: float64(d.Degraded()),
		Unit:  "batches",
	})
	snap.Metrics = append(snap.Metrics, stats.Metric{
		Name:  "rejected_batches",
		Value: float64(d.Rejected()),
		Unit:  "batches",
	})
	snap.Metrics = append(snap.Metrics, stats.Metric{
		Name:  "active_engines",
		Value: float64(d.Active()),
		Unit:  "engines",
	})
	for i, c := range d.Counts() {
		snap.Metrics = append(snap.Metrics, stats.Metric{
			Name:  fmt.Sprintf("engine_%d_batches", i),
			Value: float64(c),
			Unit:  "batches",
		})
	}
	return snap
}
