package gateway

import (
	"sync"

	"lsdgnn/internal/stats"
)

// Stats is the "gateway" stats layer: the front door's admission,
// fairness, and shedding counters. The zero value is ready to
// use — servers without a configured gateway pre-register an idle Stats so
// every lsdgnn_gateway_* series exists at zero from the first scrape, and
// gate-fronted servers bump the same shape once traffic flows.
type Stats struct {
	// admitted counts batches (or frames, at the wire gate) that passed
	// auth, rate limiting, and overload control.
	admitted     stats.Counter
	authFailures stats.Counter
	ratelimited  stats.Counter
	// shed counts work rejected by overload control: a full tenant queue
	// or a backpressure-triggered drop of the heaviest queue.
	shed stats.Counter
	// dispatched/completed bracket the backend: dispatched when a batch
	// takes a backend slot, completed when the backend returns.
	dispatched  stats.Counter
	completed   stats.Counter
	batchErrors stats.Counter

	// admitWait observes queue wait: admission to taking a backend slot.
	admitWait stats.Histogram

	mu         sync.Mutex
	queueDepth int
	queuePeak  int
}

// recordQueueDepth tracks the instantaneous and peak total queue depth
// (batches waiting across all tenants).
func (s *Stats) recordQueueDepth(n int) {
	s.mu.Lock()
	s.queueDepth = n
	if n > s.queuePeak {
		s.queuePeak = n
	}
	s.mu.Unlock()
}

// Admitted returns the batches admitted so far.
func (s *Stats) Admitted() int64 { return s.admitted.Value() }

// AuthFailures returns the requests rejected for a missing/unknown key.
func (s *Stats) AuthFailures() int64 { return s.authFailures.Value() }

// RateLimited returns the batches rejected by a tenant token bucket.
func (s *Stats) RateLimited() int64 { return s.ratelimited.Value() }

// Shed returns the batches rejected by overload control.
func (s *Stats) Shed() int64 { return s.shed.Value() }

// Completed returns the batches the backend finished.
func (s *Stats) Completed() int64 { return s.completed.Value() }

// StatsSnapshot implements stats.Source under the "gateway" layer.
func (s *Stats) StatsSnapshot() stats.Snapshot {
	s.mu.Lock()
	depth, peak := s.queueDepth, s.queuePeak
	s.mu.Unlock()
	return stats.Snapshot{Layer: "gateway", Metrics: []stats.Metric{
		s.admitted.Metric("admitted", "req"),
		s.authFailures.Metric("auth_failures", "req"),
		s.ratelimited.Metric("ratelimited", "req"),
		s.shed.Metric("shed", "req"),
		s.dispatched.Metric("dispatched", "req"),
		s.completed.Metric("completed", "req"),
		s.batchErrors.Metric("batch_errors", "req"),
		{Name: "queue_depth", Value: float64(depth), Unit: "req"},
		{Name: "queue_peak", Value: float64(peak), Unit: "req"},
	}, Hists: []stats.HistogramSnapshot{
		s.admitWait.Snapshot("admit_wait", "sec"),
	}}
}

// TenantStats is one tenant's "gateway.<name>" stats layer: admission
// outcome counters plus the tenant's end-to-end latency recorder
// (cumulative + windowed histograms, the source of the per-tenant p999).
type TenantStats struct {
	name        string
	admitted    stats.Counter
	ratelimited stats.Counter
	shed        stats.Counter
	completed   stats.Counter
	batchErrors stats.Counter
	lat         *stats.Latency
}

func newTenantStats(name string) *TenantStats {
	return &TenantStats{name: name, lat: stats.NewLatency("gateway." + name)}
}

// Name returns the tenant this layer belongs to.
func (t *TenantStats) Name() string { return t.name }

// Admitted returns the tenant's admitted batches.
func (t *TenantStats) Admitted() int64 { return t.admitted.Value() }

// RateLimited returns the tenant's rate-limited batches.
func (t *TenantStats) RateLimited() int64 { return t.ratelimited.Value() }

// Shed returns the tenant's shed batches.
func (t *TenantStats) Shed() int64 { return t.shed.Value() }

// Completed returns the tenant's completed batches.
func (t *TenantStats) Completed() int64 { return t.completed.Value() }

// Latency exposes the tenant's end-to-end latency recorder; Window("10s")
// is the rolling histogram the fairness experiment reads its p999 from.
func (t *TenantStats) Latency() *stats.Latency { return t.lat }

// StatsSnapshot implements stats.Source under the "gateway.<name>" layer.
func (t *TenantStats) StatsSnapshot() stats.Snapshot {
	snap := t.lat.StatsSnapshot()
	snap.Metrics = append(snap.Metrics,
		t.admitted.Metric("admitted", "req"),
		t.ratelimited.Metric("ratelimited", "req"),
		t.shed.Metric("shed", "req"),
		t.completed.Metric("completed", "req"),
	)
	return snap
}
