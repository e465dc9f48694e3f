// Package gateway is the multi-tenant front door of the serving stack —
// the control plane the paper's FaaS premise (§6–7) needs once pooled
// accelerators are sold to more than one customer. It layers, in order:
// per-tenant identity (API key → TenantConfig), token-bucket rate
// limiting, weighted-fair queueing into the dispatcher (deficit
// round-robin over bounded per-tenant queues), and load shedding driven by
// real backpressure — pipeline window occupancy and the SLO layer's
// fast-burn signal — so the heaviest queue is dropped before the serving
// path saturates. The autoscaler (autoscale.go) closes the Fig 16 loop:
// it grows and shrinks the engine pool against a perf-per-dollar target
// using the same perfmodel + cost machinery as the offline design-space
// exploration. The wire-plane twin (wiregate.go) enforces the same tenant
// contracts on the TCP serving plane.
package gateway

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/obs"
	"lsdgnn/internal/sampler"
	"lsdgnn/internal/stats"
)

// Defaults for Config's zero fields.
const (
	// DefaultQueueDepth bounds each tenant's queue, in batches.
	DefaultQueueDepth = 64
	// DefaultQuantum is the deficit-round-robin replenishment per weight
	// unit per round, in roots.
	DefaultQuantum = 32
	// DefaultMaxInflight bounds concurrent batches into the backend.
	DefaultMaxInflight = 4
	// DefaultShedHighWater is the backpressure level (0..1) above which
	// the gateway sheds from the heaviest queue.
	DefaultShedHighWater = 0.9
	// DefaultBurnThreshold is the SLO fast-burn level above which the
	// gateway sheds (burn > 1 means the error budget is burning faster
	// than it refills — the page signal).
	DefaultBurnThreshold = 1.0
)

// Backend runs one admitted batch; the core system wires this to its
// executor's Sample.
type Backend func(ctx context.Context, roots []graph.NodeID) (*sampler.Result, error)

// Config assembles a Gateway.
type Config struct {
	// Tenants declares every tenant; at least one is required.
	Tenants []TenantConfig
	// QueueDepth bounds each tenant's queue in batches (0 =
	// DefaultQueueDepth). A full queue sheds the enqueuing batch.
	QueueDepth int
	// Quantum is the DRR replenishment in roots per weight unit per round
	// (0 = DefaultQuantum): each scheduling round, tenant i may move
	// Quantum×Weight_i roots toward the backend.
	Quantum int
	// MaxInflight bounds concurrent batches into the backend (0 =
	// DefaultMaxInflight) — the pacing point queues build behind.
	MaxInflight int
	// ShedHighWater is the Pressure level above which enqueues shed from
	// the heaviest queue (0 = DefaultShedHighWater).
	ShedHighWater float64
	// BurnThreshold is the Burn level above which enqueues shed (0 =
	// DefaultBurnThreshold).
	BurnThreshold float64
	// Pressure, when set, reports the serving path's backpressure in
	// [0,1] — the core system wires max(dispatcher slot occupancy,
	// pipeline window occupancy).
	Pressure func() float64
	// Burn, when set, reports the serving path's SLO fast-burn rate —
	// the core system wires the software-batch objective's BurnFast.
	Burn func() float64
	// SLOs receives one "tenant_<name>" latency objective per tenant;
	// nil builds a private tracker (Gateway.SLOs exposes it either way).
	SLOs *stats.SLOTracker
	// Tracer, when set, records per-batch queue wait as a gate hop.
	Tracer *obs.Tracer
	// Clock overrides time.Now for the rate-limit buckets (tests).
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.Quantum <= 0 {
		c.Quantum = DefaultQuantum
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = DefaultMaxInflight
	}
	if c.ShedHighWater <= 0 {
		c.ShedHighWater = DefaultShedHighWater
	}
	if c.BurnThreshold <= 0 {
		c.BurnThreshold = DefaultBurnThreshold
	}
	return c
}

// call is one admitted batch waiting in its tenant queue. Calls are pooled
// per gateway with their done channel and the body of the goroutine that
// runs them, bound once. A waiter recycles its call after reading the
// answer, which is the scheduler's last touch of it; a waiter that gives
// up on its context leaves the call to the garbage collector.
type call struct {
	ctx   context.Context
	roots []graph.NodeID
	enq   time.Time
	t     *tenant // set at dispatch
	done  chan callResult
	run   func() // g.serve(this call)
}

type callResult struct {
	res *sampler.Result
	err error
}

// tenant is the runtime state behind one TenantConfig.
type tenant struct {
	cfg    TenantConfig
	bucket *bucket
	slo    *stats.SLO
	stats  *TenantStats

	// Guarded by the gateway mutex.
	queue       []*call
	queuedRoots int
	deficit     int
	// visited marks a tenant currently holding the scheduler's turn, so
	// its deficit replenishes once per turn, not once per serve.
	visited bool
}

// Gateway is the multi-tenant front door. Safe for concurrent Sample
// calls; one scheduler goroutine drains the tenant queues in
// deficit-round-robin order into the backend.
type Gateway struct {
	cfg     Config
	backend Backend
	stats   Stats
	slos    *stats.SLOTracker

	byKey  map[string]*tenant
	byName map[string]*tenant
	order  []*tenant

	mu     sync.Mutex
	cond   *sync.Cond
	rr     int
	closed bool

	inflight chan struct{}
	wg       sync.WaitGroup
	calls    sync.Pool // of *call
}

// New builds a gateway over backend and starts its scheduler.
func New(cfg Config, backend Backend) (*Gateway, error) {
	if backend == nil {
		return nil, fmt.Errorf("gateway: nil backend")
	}
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("gateway: no tenants configured")
	}
	cfg = cfg.withDefaults()
	g := &Gateway{
		cfg:      cfg,
		backend:  backend,
		slos:     cfg.SLOs,
		byKey:    map[string]*tenant{},
		byName:   map[string]*tenant{},
		inflight: make(chan struct{}, cfg.MaxInflight),
	}
	if g.slos == nil {
		g.slos = stats.NewSLOTracker()
	}
	g.calls.New = func() any {
		c := &call{done: make(chan callResult, 1)}
		c.run = func() { g.serve(c) }
		return c
	}
	g.cond = sync.NewCond(&g.mu)
	for i, tc := range cfg.Tenants {
		norm, err := tc.withDefaults()
		if err != nil {
			return nil, err
		}
		cfg.Tenants[i] = norm
		if g.byName[norm.Name] != nil {
			return nil, fmt.Errorf("gateway: duplicate tenant name %q", norm.Name)
		}
		if g.byKey[norm.Key] != nil {
			return nil, fmt.Errorf("gateway: duplicate api key for tenant %q", norm.Name)
		}
		t := &tenant{
			cfg:    norm,
			bucket: newBucket(norm.Rate, norm.Burst, cfg.Clock),
			slo:    g.slos.Objective(stats.Objective{Name: "tenant_" + norm.Name, Threshold: norm.SLO}),
			stats:  newTenantStats(norm.Name),
		}
		g.byKey[norm.Key] = t
		g.byName[norm.Name] = t
		g.order = append(g.order, t)
	}
	g.wg.Add(1)
	go g.run()
	return g, nil
}

// Close stops the scheduler after the queues drain; further Sample calls
// fail. In-flight backend batches finish.
func (g *Gateway) Close() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	g.cond.Broadcast()
	g.wg.Wait()
}

// Stats exposes the "gateway" stats layer.
func (g *Gateway) Stats() *Stats { return &g.stats }

// SLOs exposes the tracker holding the per-tenant objectives.
func (g *Gateway) SLOs() *stats.SLOTracker { return g.slos }

// Tenant returns the named tenant's stats layer (nil if unknown).
func (g *Gateway) Tenant(name string) *TenantStats {
	if t := g.byName[name]; t != nil {
		return t.stats
	}
	return nil
}

// TenantSLO returns the named tenant's latency objective (nil if unknown).
func (g *Gateway) TenantSLO(name string) *stats.SLO {
	if t := g.byName[name]; t != nil {
		return t.slo
	}
	return nil
}

// Sources lists every stats source the gateway owns — the "gateway" layer
// plus one "gateway.<name>" layer per tenant — for registry registration.
func (g *Gateway) Sources() []stats.Source {
	out := []stats.Source{&g.stats}
	for _, t := range g.order {
		out = append(out, t.stats)
	}
	return out
}

// Snapshot returns the /tenants view: per-tenant config + live counters.
func (g *Gateway) Snapshot() []TenantSnapshot {
	cfgs := make([]TenantConfig, 0, len(g.order))
	sts := make(map[string]*TenantStats, len(g.order))
	for _, t := range g.order {
		cfgs = append(cfgs, t.cfg)
		sts[t.cfg.Name] = t.stats
	}
	return snapshotTenants(cfgs, sts)
}

// Sample admits, queues, and runs one batch as the tenant owning key.
// Rejections are typed: *AuthError (unknown key), *RateLimitError (over
// contracted rate), *AdmissionError (shed by overload control). Admitted
// batches wait their turn in the tenant's queue and return the backend's
// result verbatim — including partial-degradation errors, which count as
// completions, not failures.
func (g *Gateway) Sample(ctx context.Context, key string, roots []graph.NodeID) (*sampler.Result, error) {
	t := g.byKey[key]
	if t == nil {
		g.stats.authFailures.Inc()
		return nil, &AuthError{Key: key}
	}
	if ok, retry := t.bucket.take(float64(len(roots))); !ok {
		g.stats.ratelimited.Inc()
		t.stats.ratelimited.Inc()
		return nil, &RateLimitError{Tenant: t.cfg.Name, RetryAfter: retry}
	}
	if g.cfg.Tracer != nil {
		// The batch's trace starts here, so its gate wait and every span
		// the backend records below share one ID.
		ctx, _ = obs.EnsureTrace(ctx)
	}
	c := g.calls.Get().(*call)
	c.ctx, c.roots, c.enq = ctx, roots, time.Now()
	if err := g.enqueue(t, c); err != nil {
		g.recycle(c)
		return nil, err
	}
	select {
	case out := <-c.done:
		g.recycle(c)
		return out.res, out.err
	case <-ctx.Done():
		// The scheduler skips canceled calls when it reaches them.
		return nil, ctx.Err()
	}
}

// recycle returns a call nobody else holds to the pool.
func (g *Gateway) recycle(c *call) {
	c.ctx, c.roots, c.t = nil, nil, nil
	g.calls.Put(c)
}

// enqueue applies overload control and appends c to t's queue.
func (g *Gateway) enqueue(t *tenant, c *call) error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return fmt.Errorf("gateway: closed")
	}
	if len(t.queue) >= g.cfg.QueueDepth {
		g.mu.Unlock()
		g.recordShed(t)
		return &AdmissionError{Tenant: t.cfg.Name, Reason: "queue full"}
	}
	// Backpressure shedding: when the serving path is near saturation
	// (window occupancy past the high-water mark) or the SLO budget is
	// fast-burning, shed new work from whichever tenant already holds the
	// heaviest per-weight queue — the greedy tenant sheds itself while a
	// light tenant's near-empty queue keeps admitting.
	if g.overloaded() && g.heaviestLocked(t) {
		g.mu.Unlock()
		g.recordShed(t)
		return &AdmissionError{Tenant: t.cfg.Name, Reason: "backpressure"}
	}
	t.queue = append(t.queue, c)
	t.queuedRoots += len(c.roots)
	depth := g.depthLocked()
	g.mu.Unlock()
	g.stats.admitted.Inc()
	t.stats.admitted.Inc()
	g.stats.recordQueueDepth(depth)
	g.cond.Signal()
	return nil
}

// recordShed counts one shed batch on the gateway and tenant layers.
func (g *Gateway) recordShed(t *tenant) {
	g.stats.shed.Inc()
	t.stats.shed.Inc()
}

// overloaded reports whether a shedding trigger is armed.
func (g *Gateway) overloaded() bool {
	if p := g.cfg.Pressure; p != nil && p() >= g.cfg.ShedHighWater {
		return true
	}
	if b := g.cfg.Burn; b != nil && b() > g.cfg.BurnThreshold {
		return true
	}
	return false
}

// heaviestLocked reports whether t holds the heaviest per-weight queue
// (strictly positive). Caller holds g.mu.
func (g *Gateway) heaviestLocked(t *tenant) bool {
	load := func(x *tenant) float64 { return float64(x.queuedRoots) / float64(x.cfg.Weight) }
	mine := load(t)
	if mine <= 0 {
		return false
	}
	for _, u := range g.order {
		if u != t && load(u) > mine {
			return false
		}
	}
	return true
}

// depthLocked sums queued batches across tenants. Caller holds g.mu.
func (g *Gateway) depthLocked() int {
	n := 0
	for _, t := range g.order {
		n += len(t.queue)
	}
	return n
}

// run is the scheduler: deficit round-robin over the tenant queues into
// the bounded backend.
func (g *Gateway) run() {
	defer g.wg.Done()
	g.mu.Lock()
	for {
		c, t := g.nextLocked()
		if c == nil {
			if g.closed {
				g.mu.Unlock()
				// Fail whatever raced in after the last scan.
				g.failPending()
				return
			}
			g.cond.Wait()
			continue
		}
		depth := g.depthLocked()
		g.mu.Unlock()
		g.stats.recordQueueDepth(depth)
		g.dispatch(t, c)
		g.mu.Lock()
	}
}

// nextLocked picks the next call by deficit round-robin: when the
// scheduler's turn reaches a backlogged tenant, that tenant's deficit
// grows by Quantum×Weight roots once, and it keeps the turn — serving one
// head-of-line batch per call — until the deficit no longer covers the
// head batch. Unspent deficit carries across turns (so a batch larger
// than one replenishment eventually runs) but idle tenants forfeit theirs
// (standard DRR — credit does not accrue while the queue is empty).
// Returns nil when every queue is empty. Caller holds g.mu.
func (g *Gateway) nextLocked() (*call, *tenant) {
	n := len(g.order)
	for {
		any := false
		for i := 0; i < n; i++ {
			t := g.order[g.rr]
			if len(t.queue) == 0 {
				t.deficit = 0
				t.visited = false
				g.rr = (g.rr + 1) % n
				continue
			}
			any = true
			if !t.visited {
				t.deficit += g.cfg.Quantum * t.cfg.Weight
				t.visited = true
			}
			cost := len(t.queue[0].roots)
			if t.deficit < cost {
				// Turn over; the remaining deficit carries to next turn.
				t.visited = false
				g.rr = (g.rr + 1) % n
				continue
			}
			c := t.queue[0]
			// Shifted, not resliced: the queue keeps its backing array, so
			// the next enqueue appends without allocating.
			t.queue = slices.Delete(t.queue, 0, 1)
			t.queuedRoots -= cost
			t.deficit -= cost
			if len(t.queue) == 0 {
				t.deficit = 0
				t.visited = false
				g.rr = (g.rr + 1) % n
			}
			return c, t
		}
		if !any {
			return nil, nil
		}
	}
}

// dispatch pushes one dequeued call into the backend, bounded by the
// in-flight semaphore.
func (g *Gateway) dispatch(t *tenant, c *call) {
	if err := c.ctx.Err(); err != nil {
		// Canceled while queued: the waiter already returned; nothing ran.
		c.done <- callResult{err: err}
		return
	}
	g.inflight <- struct{}{}
	wait := time.Since(c.enq)
	g.stats.admitWait.ObserveDuration(wait)
	if tr := g.cfg.Tracer; tr != nil {
		if id, ok := obs.FromContext(c.ctx); ok {
			tr.Observe(id, obs.HopGateWait, c.enq, wait)
		}
	}
	g.stats.dispatched.Inc()
	g.wg.Add(1)
	c.t = t
	go c.run()
}

// serve runs one dispatched call on the backend and answers its waiter.
// The answer is its last touch of c: the waiter may recycle c at once.
func (g *Gateway) serve(c *call) {
	defer func() {
		<-g.inflight
		g.wg.Done()
	}()
	t := c.t
	res, err := g.backend(c.ctx, c.roots)
	dur := time.Since(c.enq)
	// A degraded batch (partial error alongside a layout-complete result)
	// is a completion: its latency is real and its SLO classification is by
	// latency alone, like the client path.
	failed := err != nil && res == nil
	if failed {
		g.stats.batchErrors.Inc()
		t.stats.batchErrors.Inc()
		t.stats.lat.ObserveError()
	} else {
		g.stats.completed.Inc()
		t.stats.completed.Inc()
		t.stats.lat.Observe(dur)
	}
	t.slo.ObserveLatency(dur, failed)
	c.done <- callResult{res: res, err: err}
}

// failPending drains any call that slipped into a queue during shutdown.
func (g *Gateway) failPending() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, t := range g.order {
		for _, c := range t.queue {
			c.done <- callResult{err: fmt.Errorf("gateway: closed")}
		}
		t.queue, t.queuedRoots = nil, 0
	}
}
