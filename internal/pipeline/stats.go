package pipeline

import (
	"sync"

	"lsdgnn/internal/stats"
)

// Stats is the executor's "pipeline" stats layer: the software analog of
// the load unit's occupancy counters. The zero value is ready to use —
// servers register an idle Stats at startup so every lsdgnn_pipeline_*
// series exists at zero from the first scrape (stable Prometheus
// namespace), and executors bump the same shape once traffic flows.
type Stats struct {
	// issued/retired tasks are window-gated fetches (one per hop per
	// batch, plus one attribute gather per batch); requests count the
	// vertices those tasks moved.
	issuedTasks     stats.Counter
	issuedRequests  stats.Counter
	retiredTasks    stats.Counter
	retiredRequests stats.Counter
	// windowStalls counts tasks that found the window full and had to
	// wait — the signal that the executor, not the store, is the
	// bottleneck.
	windowStalls stats.Counter
	// degradedRoots counts roots that asked for a vertex a fetch lost
	// (self-loop padding / zeroed attributes in their subtree).
	degradedRoots stats.Counter
	batches       stats.Counter
	batchErrors   stats.Counter

	batchLatency stats.Histogram
	// batchWindow is the rolling last-10s view of batchLatency (zero value
	// = 10s/10 shards) — the batch_latency_window_10s series.
	batchWindow stats.WindowedHistogram

	mu           sync.Mutex
	inflight     int
	inflightPeak int
	// capacity is the executor's window size — the denominator of the
	// occupancy signal the gateway sheds on. 0 until an executor attaches.
	capacity int
}

// setCapacity records the executor's window size.
func (s *Stats) setCapacity(n int) {
	s.mu.Lock()
	s.capacity = n
	s.mu.Unlock()
}

// Occupancy returns the window's current fill fraction in [0, 1] — the
// backpressure signal a gateway sheds on. 0 while no executor is attached.
func (s *Stats) Occupancy() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return occupancy(s.inflight, s.capacity)
}

// occupancy is inflight over capacity, clamped to [0, 1].
func occupancy(inflight, capacity int) float64 {
	if capacity <= 0 {
		return 0
	}
	return min(float64(inflight)/float64(capacity), 1)
}

// recordInflight tracks the instantaneous and peak occupancy of the
// executor's one window (the sum over its concurrent batches).
func (s *Stats) recordInflight(n int) {
	s.mu.Lock()
	s.inflight = n
	if n > s.inflightPeak {
		s.inflightPeak = n
	}
	s.mu.Unlock()
}

// Inflight returns the current window occupancy in node-requests.
func (s *Stats) Inflight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight
}

// InflightPeak returns the highest window occupancy seen.
func (s *Stats) InflightPeak() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflightPeak
}

// WindowStalls returns how many tasks waited on a full window.
func (s *Stats) WindowStalls() int64 { return s.windowStalls.Value() }

// DegradedRoots returns how many roots retired degraded.
func (s *Stats) DegradedRoots() int64 { return s.degradedRoots.Value() }

// IssuedRequests returns the total node-requests issued.
func (s *Stats) IssuedRequests() int64 { return s.issuedRequests.Value() }

// StatsSnapshot implements stats.Source under the "pipeline" layer.
func (s *Stats) StatsSnapshot() stats.Snapshot {
	s.mu.Lock()
	inflight, peak, capacity := s.inflight, s.inflightPeak, s.capacity
	s.mu.Unlock()
	return stats.Snapshot{Layer: "pipeline", Metrics: []stats.Metric{
		{Name: "inflight", Value: float64(inflight), Unit: "req"},
		{Name: "inflight_peak", Value: float64(peak), Unit: "req"},
		{Name: "window_capacity", Value: float64(capacity), Unit: "req"},
		{Name: "occupancy", Value: occupancy(inflight, capacity), Unit: "ratio"},
		s.issuedTasks.Metric("issued_tasks", "req"),
		s.issuedRequests.Metric("issued_requests", "req"),
		s.retiredTasks.Metric("retired_tasks", "req"),
		s.retiredRequests.Metric("retired_requests", "req"),
		s.windowStalls.Metric("window_full_stalls", "req"),
		s.degradedRoots.Metric("degraded_roots", "req"),
		s.batches.Metric("batches", "req"),
		s.batchErrors.Metric("batch_errors", "req"),
	}, Hists: []stats.HistogramSnapshot{
		s.batchLatency.Snapshot("batch_latency", "sec"),
		s.batchWindow.Snapshot("batch_latency_window_10s", "sec"),
	}}
}
