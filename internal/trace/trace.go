// Package trace provides the characterization instrumentation used in
// Section 3 of the paper: per-access-class byte/request accounting
// (Figure 2(c)) and coarse stage timers (Figure 3).
package trace

import (
	"fmt"
	"sort"
	"sync"

	"lsdgnn/internal/stats"
)

// AccessClass labels a memory access by what it reads.
type AccessClass int

// Access classes observed during graph sampling.
const (
	// AccessStructure is fine-grained indirect access to graph structure:
	// CSR offsets, neighbor IDs, degrees (8–64 B pointer chasing).
	AccessStructure AccessClass = iota
	// AccessAttribute is a bulk attribute-vector read.
	AccessAttribute
	numAccessClasses
)

func (c AccessClass) String() string {
	switch c {
	case AccessStructure:
		return "structure"
	case AccessAttribute:
		return "attribute"
	default:
		return fmt.Sprintf("AccessClass(%d)", int(c))
	}
}

// AccessStats accumulates request and byte counts per access class and
// locality (local partition vs remote). Safe for concurrent use.
type AccessStats struct {
	mu       sync.Mutex
	requests [numAccessClasses]int64
	bytes    [numAccessClasses]int64
	remote   [numAccessClasses]int64
}

// Record notes reqs accesses of class c transferring n bytes between them;
// remote marks them cross-server. A caller serving a whole vector of
// requests records it once, with its count and byte total, rather than
// taking the lock per element.
func (s *AccessStats) Record(c AccessClass, reqs, n int, remote bool) {
	s.mu.Lock()
	s.requests[c] += int64(reqs)
	s.bytes[c] += int64(n)
	if remote {
		s.remote[c] += int64(reqs)
	}
	s.mu.Unlock()
}

// Requests returns the request count for class c.
func (s *AccessStats) Requests(c AccessClass) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.requests[c]
}

// Bytes returns the byte count for class c.
func (s *AccessStats) Bytes(c AccessClass) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes[c]
}

// StructureRequestShare returns the fraction of all requests that were
// fine-grained structure accesses — the Figure 2(c) metric (≈48% avg).
func (s *AccessStats) StructureRequestShare() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := s.requests[AccessStructure] + s.requests[AccessAttribute]
	if total == 0 {
		return 0
	}
	return float64(s.requests[AccessStructure]) / float64(total)
}

// RemoteShare returns the fraction of all requests that crossed servers.
func (s *AccessStats) RemoteShare() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total, remote int64
	for c := AccessClass(0); c < numAccessClasses; c++ {
		total += s.requests[c]
		remote += s.remote[c]
	}
	if total == 0 {
		return 0
	}
	return float64(remote) / float64(total)
}

// AvgRequestBytes returns the mean bytes per request of class c.
func (s *AccessStats) AvgRequestBytes(c AccessClass) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.requests[c] == 0 {
		return 0
	}
	return float64(s.bytes[c]) / float64(s.requests[c])
}

// StatsSnapshot implements stats.Source, reporting per-class request and
// byte counts plus the derived shares under the "trace.access" layer.
func (s *AccessStats) StatsSnapshot() stats.Snapshot {
	s.mu.Lock()
	structReq := s.requests[AccessStructure]
	structBytes := s.bytes[AccessStructure]
	attrReq := s.requests[AccessAttribute]
	attrBytes := s.bytes[AccessAttribute]
	var remote int64
	for c := AccessClass(0); c < numAccessClasses; c++ {
		remote += s.remote[c]
	}
	s.mu.Unlock()
	total := structReq + attrReq
	structShare, remoteShare := 0.0, 0.0
	if total > 0 {
		structShare = float64(structReq) / float64(total)
		remoteShare = float64(remote) / float64(total)
	}
	return stats.Snapshot{Layer: "trace.access", Metrics: []stats.Metric{
		{Name: "structure_requests", Value: float64(structReq), Unit: "req"},
		{Name: "structure_bytes", Value: float64(structBytes), Unit: "bytes"},
		{Name: "attribute_requests", Value: float64(attrReq), Unit: "req"},
		{Name: "attribute_bytes", Value: float64(attrBytes), Unit: "bytes"},
		{Name: "structure_share", Value: structShare, Unit: "ratio"},
		{Name: "remote_share", Value: remoteShare, Unit: "ratio"},
	}}
}

// Reset zeroes all counters.
func (s *AccessStats) Reset() {
	s.mu.Lock()
	s.requests = [numAccessClasses]int64{}
	s.bytes = [numAccessClasses]int64{}
	s.remote = [numAccessClasses]int64{}
	s.mu.Unlock()
}

// StageTimer accumulates simulated (or wall) time per named pipeline stage,
// producing the Figure 3 breakdown.
type StageTimer struct {
	mu     sync.Mutex
	stages map[string]float64
}

// NewStageTimer returns an empty timer.
func NewStageTimer() *StageTimer {
	return &StageTimer{stages: make(map[string]float64)}
}

// Add accumulates seconds spent in stage.
func (t *StageTimer) Add(stage string, seconds float64) {
	t.mu.Lock()
	t.stages[stage] += seconds
	t.mu.Unlock()
}

// Total returns the sum across stages.
func (t *StageTimer) Total() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum float64
	for _, v := range t.stages {
		sum += v
	}
	return sum
}

// Share returns stage's fraction of the total (0 when empty).
func (t *StageTimer) Share(stage string) float64 {
	total := t.Total()
	if total == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stages[stage] / total
}

// Breakdown returns (stage, seconds) pairs sorted by descending time.
func (t *StageTimer) Breakdown() []StageShare {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]StageShare, 0, len(t.stages))
	var total float64
	for _, v := range t.stages {
		total += v
	}
	for k, v := range t.stages {
		share := 0.0
		if total > 0 {
			share = v / total
		}
		out = append(out, StageShare{Stage: k, Seconds: v, Share: share})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seconds != out[j].Seconds {
			return out[i].Seconds > out[j].Seconds
		}
		return out[i].Stage < out[j].Stage
	})
	return out
}

// StageShare is one row of a breakdown.
type StageShare struct {
	Stage   string
	Seconds float64
	Share   float64
}
