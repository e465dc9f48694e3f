package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"lsdgnn/internal/axe"
	"lsdgnn/internal/obs"
	"lsdgnn/internal/sampler"
	"lsdgnn/internal/stats"
)

// DispatcherConfig tunes batch scheduling across engines.
type DispatcherConfig struct {
	// Workers bounds how many batches run concurrently across all engines;
	// 0 defaults to 2× the engine count.
	Workers int
}

// Dispatcher places sampled batches on a pool of modeled AxE engines — the
// FaaS dispatcher of §6 over its engine pool. It picks the
// engine with the fewest in-flight batches (round-robin between ties) and
// bounds total concurrency with a worker pool. It never samples: each
// engine replays the timing of a batch the caller already holds, so
// placement moves only the modeled timing.
type Dispatcher struct {
	engines []*axe.Engine
	cfg     DispatcherConfig
	slots   chan struct{}
	lat     *stats.Latency
	// tracer and slo, set by NewSystem, record each batch's queue wait and
	// engine replay as hops of its trace and classify it against the
	// "sample" objective. Either may be nil.
	tracer *obs.Tracer
	slo    *stats.SLO

	mu       sync.Mutex
	inflight []int64
	counts   []int64
	rr       int
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
	}, nil
}

// pick selects the least-loaded engine, rotating between ties so idle
// engines all receive work.
func (d *Dispatcher) pick() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	best, bestLoad := -1, int64(1<<62)
	n := len(d.engines)
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

// Submit times one sampled batch on the best available engine. It blocks
// while the worker pool is saturated; ctx bounds that wait, and a batch
// that got a slot is replayed to the end.
func (d *Dispatcher) Submit(ctx context.Context, res *sampler.Result) (axe.BatchStats, error) {
	tr := d.tracer
	var id obs.TraceID
	if tr != nil {
		_, id = obs.EnsureTrace(ctx)
	}
	start := time.Now()
	if ctx.Err() == nil {
		select {
		case d.slots <- struct{}{}:
			engine := d.pick()
			// Queue wait: from submission until a worker slot and an engine
			// are both held.
			tr.Observe(id, obs.HopDispatchWait, start, time.Since(start))
			estart := time.Now()
			st := d.engines[engine].RunBatch(res)
			tr.Observe(id, obs.HopEngine, estart, time.Since(estart))
			d.release(engine)
			<-d.slots
			dur := time.Since(start)
			d.lat.ObserveTrace(dur, uint64(id))
			d.slo.ObserveLatency(dur, false)
			return st, nil
		case <-ctx.Done():
		}
	}
	d.lat.ObserveError()
	d.slo.ObserveLatency(time.Since(start), true)
	return axe.BatchStats{}, ctx.Err()
}

// Engines returns how many engines the dispatcher schedules over.
func (d *Dispatcher) Engines() int { return len(d.engines) }

// Counts returns the cumulative batches dispatched to each engine.
func (d *Dispatcher) Counts() []int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]int64, len(d.counts))
	copy(out, d.counts)
	return out
}

// StatsSnapshot implements stats.Source: batch latency plus the per-engine
// dispatch distribution under the "core.dispatcher" layer.
func (d *Dispatcher) StatsSnapshot() stats.Snapshot {
	snap := d.lat.StatsSnapshot()
	for i, c := range d.Counts() {
		snap.Metrics = append(snap.Metrics, stats.Metric{
			Name:  fmt.Sprintf("engine_%d_batches", i),
			Value: float64(c),
			Unit:  "batches",
		})
	}
	return snap
}
