// Package gateway is the multi-tenant front door of the serving stack —
// the control plane the paper's FaaS premise (§6–7) needs once pooled
// accelerators are sold to more than one customer. It layers, in order:
// per-tenant identity (API key → TenantConfig), token-bucket rate
// limiting, weighted-fair admission to a bounded number of backend slots
// (deficit round-robin over bounded per-tenant queues), and load shedding
// driven by real backpressure — pipeline window occupancy and the SLO
// layer's fast-burn signal — so the heaviest queue is dropped before the
// serving path saturates. The gateway owns no goroutine: each admitted
// batch runs on its caller's goroutine once it holds a slot, and a
// finishing batch hands its slot to the next batch in fair order. The
// wire-plane twin (wiregate.go) enforces the same tenant contracts on the
// TCP serving plane.
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

// Defaults for Config's zero fields, and the fixed scheduling and
// shedding levels.
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
	// QueueDepth bounds each tenant's queue of batches waiting for a
	// backend slot (0 = DefaultQueueDepth). A full queue sheds the
	// enqueuing batch.
	QueueDepth int
	// MaxInflight bounds concurrent batches into the backend (0 =
	// DefaultMaxInflight) — the pacing point queues build behind.
	MaxInflight int
	// Pressure, when set, reports the serving path's backpressure in
	// [0,1] — the core system wires the pipeline's window occupancy.
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
	if c.MaxInflight <= 0 {
		c.MaxInflight = DefaultMaxInflight
	}
	return c
}

// waiter is one admitted batch parked in its tenant queue until a
// finishing batch grants it a backend slot.
type waiter struct {
	roots []graph.NodeID
	// ready receives the grant; buffered so granting never blocks.
	ready chan struct{}
}

// tenant is the runtime state behind one TenantConfig.
type tenant struct {
	cfg    TenantConfig
	bucket *bucket
	slo    *stats.SLO
	stats  *TenantStats

	// Guarded by the gateway mutex.
	queue       []*waiter
	queuedRoots int
	deficit     int
	// visited marks a tenant currently holding the scheduler's turn, so
	// its deficit replenishes once per turn, not once per serve.
	visited bool
}

// Gateway is the multi-tenant front door: a fair counting semaphore over
// MaxInflight backend slots. Safe for concurrent Sample calls; each runs
// its batch on its own goroutine.
type Gateway struct {
	cfg     Config
	backend Backend
	stats   Stats
	slos    *stats.SLOTracker

	byKey  map[string]*tenant
	byName map[string]*tenant
	order  []*tenant

	mu sync.Mutex
	// idle is signalled when the last running batch finishes (Close).
	idle    *sync.Cond
	rr      int
	running int
	closed  bool
}

// New builds a gateway over backend.
func New(cfg Config, backend Backend) (*Gateway, error) {
	if backend == nil {
		return nil, fmt.Errorf("gateway: nil backend")
	}
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("gateway: no tenants configured")
	}
	cfg = cfg.withDefaults()
	g := &Gateway{
		cfg:     cfg,
		backend: backend,
		slos:    cfg.SLOs,
		byKey:   map[string]*tenant{},
		byName:  map[string]*tenant{},
	}
	if g.slos == nil {
		g.slos = stats.NewSLOTracker()
	}
	g.idle = sync.NewCond(&g.mu)
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
	return g, nil
}

// Close fails further Sample calls and returns once every admitted batch,
// running or queued, has finished.
func (g *Gateway) Close() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.closed = true
	// A queued batch implies a running one, whose finish hands it a slot.
	for g.running > 0 {
		g.idle.Wait()
	}
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
// contracted rate), *AdmissionError (shed by overload control). An
// admitted batch waits in its tenant's queue for a backend slot, then runs
// on the caller's goroutine and returns the backend's result verbatim —
// including partial-degradation errors, which count as completions, not
// failures.
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
	enq := time.Now()
	if err := g.acquire(ctx, t, roots); err != nil {
		return nil, err
	}
	defer g.release()
	wait := time.Since(enq)
	g.stats.admitWait.ObserveDuration(wait)
	if tr := g.cfg.Tracer; tr != nil {
		if id, ok := obs.FromContext(ctx); ok {
			tr.Observe(id, obs.HopGateWait, enq, wait)
		}
	}
	g.stats.dispatched.Inc()
	res, err := g.backend(ctx, roots)
	dur := time.Since(enq)
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
	return res, err
}

// acquire applies overload control and takes a backend slot for roots:
// at once when none is queued and one is free, otherwise after waiting in
// t's queue for a finishing batch to grant one. A nil return means the
// caller holds a slot and must release it.
func (g *Gateway) acquire(ctx context.Context, t *tenant, roots []graph.NodeID) error {
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
	depth := g.depthLocked()
	if depth == 0 && g.running < g.cfg.MaxInflight {
		g.running++
		g.mu.Unlock()
		g.recordAdmitted(t, 0)
		return nil
	}
	// Slots are full (a queued batch implies they are): wait in line.
	w := &waiter{roots: roots, ready: make(chan struct{}, 1)}
	t.queue = append(t.queue, w)
	t.queuedRoots += len(roots)
	g.mu.Unlock()
	g.recordAdmitted(t, depth+1)
	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
	}
	g.mu.Lock()
	if i := slices.Index(t.queue, w); i >= 0 {
		t.queue = slices.Delete(t.queue, i, i+1)
		t.queuedRoots -= len(roots)
		g.mu.Unlock()
	} else {
		// Granted as the context fired: pass the slot on unused.
		g.releaseLocked()
	}
	return ctx.Err()
}

// release gives back the caller's backend slot.
func (g *Gateway) release() {
	g.mu.Lock()
	g.releaseLocked()
}

// releaseLocked hands the freed slot to the deficit-round-robin choice
// among the queued batches, or returns it to the pool when none waits.
// Caller holds g.mu; releaseLocked unlocks it.
func (g *Gateway) releaseLocked() {
	w, _ := g.nextLocked()
	if w == nil {
		g.running--
		if g.running == 0 {
			g.idle.Broadcast()
		}
		g.mu.Unlock()
		return
	}
	w.ready <- struct{}{}
	depth := g.depthLocked()
	g.mu.Unlock()
	g.stats.recordQueueDepth(depth)
}

// recordAdmitted counts one admitted batch and the queue depth it left.
func (g *Gateway) recordAdmitted(t *tenant, depth int) {
	g.stats.admitted.Inc()
	t.stats.admitted.Inc()
	g.stats.recordQueueDepth(depth)
}

// recordShed counts one shed batch on the gateway and tenant layers.
func (g *Gateway) recordShed(t *tenant) {
	g.stats.shed.Inc()
	t.stats.shed.Inc()
}

// overloaded reports whether a shedding trigger is armed.
func (g *Gateway) overloaded() bool {
	if p := g.cfg.Pressure; p != nil && p() >= DefaultShedHighWater {
		return true
	}
	if b := g.cfg.Burn; b != nil && b() > DefaultBurnThreshold {
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

// nextLocked picks the next waiter by deficit round-robin: when the
// scheduler's turn reaches a backlogged tenant, that tenant's deficit
// grows by DefaultQuantum×Weight roots once, and it keeps the turn —
// serving one head-of-line batch per call — until the deficit no longer
// covers the head batch. Unspent deficit carries across turns (so a batch
// larger than one replenishment eventually runs) but idle tenants forfeit
// theirs (standard DRR — credit does not accrue while the queue is empty).
// Returns nil when every queue is empty. Caller holds g.mu.
func (g *Gateway) nextLocked() (*waiter, *tenant) {
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
				t.deficit += DefaultQuantum * t.cfg.Weight
				t.visited = true
			}
			cost := len(t.queue[0].roots)
			if t.deficit < cost {
				// Turn over; the remaining deficit carries to next turn.
				t.visited = false
				g.rr = (g.rr + 1) % n
				continue
			}
			w := t.queue[0]
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
			return w, t
		}
		if !any {
			return nil, nil
		}
	}
}
