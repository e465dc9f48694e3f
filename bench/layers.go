package main

import (
	"fmt"
	"time"

	"lsdgnn/internal/mem"
	"lsdgnn/internal/stats"
)

// layerCounters reads every count the per-layer metrics need, at the
// boundaries where the work happens: the harness's own seams first, the
// program's public stats accessors for what no seam can see (window
// stalls, cache hits, pool hits). Traced runs only.
func (s *stack) layerCounters() map[string]float64 {
	c := map[string]float64{
		"gateway.shed":     float64(s.gw.Stats().Shed()),
		"pipeline.stalls":  float64(s.exec.Stats().WindowStalls()),
		"pipeline.peak":    float64(s.exec.Stats().InflightPeak()),
		"pipeline.fetches": float64(s.fetches.calls.Load()),
		"wire.frames":      float64(s.wire.frames.Load()),
		"wire.req_bytes":   float64(s.wire.reqBytes.Load()),
		"wire.resp_bytes":  float64(s.wire.respBytes.Load()),
		"pack.requests":    float64(s.client.Pack.Requests()),
		"pack.frames":      float64(s.client.Pack.Frames()),
		"pack.raw_bytes":   float64(s.client.Pack.RawBytes()),
		"pack.wire_bytes":  float64(s.client.Pack.WireBytes()),
	}
	for _, t := range s.tcps {
		c["tcp.accepted"] += get(t.StatsSnapshot(), "accepted_conns")
	}
	for _, r := range s.reads {
		c["store.reads"] += float64(r.reads.Load())
		c["store.read_ns"] += float64(r.readNS.Load())
	}
	for _, st := range s.storeSt {
		snap := st.StatsSnapshot()
		c["store.hits"] += get(snap, "cache_hits")
		c["store.misses"] += get(snap, "cache_misses")
		c["store.evictions"] += get(snap, "cache_evictions")
		c["store.wal_appends"] += get(snap, "wal_appends")
	}
	pool := mem.Snapshot()
	c["mem.hits"] = get(pool, "pool_hits")
	c["mem.misses"] = get(pool, "pool_misses")
	return c
}

func get(s stats.Snapshot, name string) float64 {
	v, _ := s.Get(name)
	return v
}

// residentMB is the page caches' residency summed over the shards.
func (s *stack) residentMB() float64 {
	var b int64
	for _, ds := range s.stores {
		if ds != nil {
			b += ds.Resident()
		}
	}
	return float64(b) / (1 << 20)
}

// checkIngested requires every edge the writer was acknowledged for to be
// in a memtable.
func (s *stack) checkIngested(written int) error {
	var delta int64
	for _, ds := range s.stores {
		delta += ds.DeltaEdges()
	}
	if delta != int64(written) {
		return fmt.Errorf("writer appended %d edges, memtables hold %d", written, delta)
	}
	return nil
}

// compactAll folds every shard's memtable into a new segment, outside the
// measurement windows, and returns the time it took. Afterwards the
// segments must hold the appended edges and the memtables nothing.
func (s *stack) compactAll(written int) (float64, error) {
	var before int64
	for _, ds := range s.stores {
		before += ds.NumEdges()
	}
	start := time.Now()
	for p, ds := range s.stores {
		if err := ds.Compact(); err != nil {
			return 0, fmt.Errorf("compact shard %d: %w", p, err)
		}
	}
	ms := float64(time.Since(start)) / 1e6
	var after, delta int64
	for _, ds := range s.stores {
		after += ds.NumEdges()
		delta += ds.DeltaEdges()
	}
	if after != before || delta != 0 {
		return ms, fmt.Errorf("compaction changed the edge count %d -> %d (memtables still hold %d of %d appended)", before, after, delta, written)
	}
	return ms, nil
}
