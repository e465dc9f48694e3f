package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/mem"
	"lsdgnn/internal/stats"
)

// Elastic partition layout. The paper's decoupled FaaS variants (§6,
// Fig 13) pool fabric-attached memory independently of compute, which only
// pays off if the serving layer can re-home partitions and rotate replicas
// *while traffic is flowing*. This file makes the layout a first-class,
// versioned object: an immutable, epoch-numbered routing table that the
// client swaps atomically, plus the control-plane primitives built on it —
// replica add (one swap, only after a health/parity probe), replica drain
// (one swap out of routing, then a wait for in-flight frames), and
// partition migration (add the target, then drain the source). In-flight
// requests complete against the epoch they started under; retry passes
// re-resolve their endpoint list from the live layout, so they land on the
// new epoch.

// Layout is the versioned partition→endpoints routing table: each
// partition's endpoint list, primary first, in the order a pass tries
// them. An endpoint is in a partition's list (and routed to) or it is not.
// Client.ApplyLayout swaps the active layout atomically — the partition
// *count* never changes across epochs (partitioners key on it), only the
// endpoint lists do.
//
// Build one with NewLayout or UniformLayout. A zero Layout is not valid.
type Layout struct {
	// Epoch numbers the layout generation, starting at 1. ApplyLayout
	// refuses a layout whose epoch does not advance the one being served.
	Epoch uint64
	// Partitions lists, per partition, the endpoints holding that shard.
	Partitions [][]int
}

// NewLayout builds the epoch-1 layout routing partition p to the endpoints
// of m[p], primary first. A nil m yields the identity layout: partition p
// served only by endpoint p. A map with other than one row per partition,
// an empty row or a negative endpoint is rejected.
func NewLayout(partitions int, m [][]int) (*Layout, error) {
	if partitions < 1 {
		return nil, fmt.Errorf("cluster: layout over %d partitions", partitions)
	}
	if m != nil && len(m) != partitions {
		return nil, fmt.Errorf("cluster: replica map has %d rows for %d partitions", len(m), partitions)
	}
	l := &Layout{Epoch: 1, Partitions: make([][]int, partitions)}
	for p := range l.Partitions {
		if m == nil {
			l.Partitions[p] = []int{p}
		} else {
			l.Partitions[p] = slices.Clone(m[p])
		}
	}
	if err := l.check(); err != nil {
		return nil, err
	}
	return l, nil
}

// UniformLayout builds the canonical replicated layout at epoch 1: replica
// r of partition p is endpoint r*partitions+p, i.e. endpoints
// [0,partitions) are the primaries and each subsequent block of
// `partitions` endpoints is a full replica set.
//
// replicas < 1 is clamped to 1 — "no replication" is a meaningful default,
// so a zero value degrades gracefully. partitions < 1 panics instead:
// there is no sensible layout over zero partitions, and silently returning
// an empty one would only defer the crash to the first client fan-out
// (HashPartitioner.Owner makes the same choice for a serverless
// partitioner).
func UniformLayout(partitions, replicas int) *Layout {
	if partitions < 1 {
		panic(fmt.Sprintf("cluster: UniformLayout over %d partitions", partitions))
	}
	replicas = max(replicas, 1)
	l := &Layout{Epoch: 1, Partitions: make([][]int, partitions)}
	for p := range l.Partitions {
		row := make([]int, replicas)
		for r := range row {
			row[r] = r*partitions + p
		}
		l.Partitions[p] = row
	}
	return l
}

// Routable returns the partition's endpoints, preferred primary first. The
// slice is shared and must not be modified.
func (l *Layout) Routable(partition int) []int {
	if partition < 0 || partition >= len(l.Partitions) {
		return nil
	}
	return l.Partitions[partition]
}

// Contains reports whether the endpoint appears anywhere in the layout.
func (l *Layout) Contains(endpoint int) bool {
	for _, row := range l.Partitions {
		if slices.Contains(row, endpoint) {
			return true
		}
	}
	return false
}

// Endpoints returns the endpoint→partition membership map.
func (l *Layout) Endpoints() map[int]int {
	out := make(map[int]int, len(l.Partitions)*2)
	for p, row := range l.Partitions {
		for _, ep := range row {
			out[ep] = p
		}
	}
	return out
}

// Validate checks the layout is well-formed over the given partition
// count: every partition keeps at least one endpoint, no endpoint is
// listed twice or under two partitions, no negative endpoint indices.
func (l *Layout) Validate(partitions int) error {
	if len(l.Partitions) != partitions {
		return fmt.Errorf("cluster: layout covers %d of %d partitions", len(l.Partitions), partitions)
	}
	return l.check()
}

func (l *Layout) check() error {
	owners := make(map[int]int, len(l.Partitions)*2)
	for p, row := range l.Partitions {
		if len(row) == 0 {
			return fmt.Errorf("cluster: partition %d has no endpoint", p)
		}
		for _, ep := range row {
			if ep < 0 {
				return fmt.Errorf("cluster: partition %d lists negative endpoint %d", p, ep)
			}
			if prev, ok := owners[ep]; ok {
				if prev == p {
					return fmt.Errorf("cluster: partition %d lists endpoint %d twice", p, ep)
				}
				return fmt.Errorf("cluster: endpoint %d listed for partitions %d and %d — one endpoint holds one shard", ep, prev, p)
			}
			owners[ep] = p
		}
	}
	return nil
}

// clone deep-copies the layout at the given epoch, so a published layout
// never shares rows with one a caller can still edit.
func (l *Layout) clone(epoch uint64) *Layout {
	n := &Layout{Epoch: epoch, Partitions: make([][]int, len(l.Partitions))}
	for p, row := range l.Partitions {
		n.Partitions[p] = slices.Clone(row)
	}
	return n
}

func (l *Layout) checkPartition(partition int) error {
	if partition < 0 || partition >= len(l.Partitions) {
		return fmt.Errorf("cluster: no partition %d in layout", partition)
	}
	return nil
}

// with returns the next epoch with endpoint appended to the partition's
// list. An endpoint already in the layout is refused.
func (l *Layout) with(partition, endpoint int) (*Layout, error) {
	if err := l.checkPartition(partition); err != nil {
		return nil, err
	}
	if l.Contains(endpoint) {
		return nil, fmt.Errorf("cluster: endpoint %d already in the layout", endpoint)
	}
	n := l.clone(l.Epoch + 1)
	n.Partitions[partition] = append(n.Partitions[partition], endpoint)
	return n, nil
}

// without returns the next epoch with endpoint removed from the
// partition's list. Refused for the partition's last endpoint — that would
// blackhole the shard.
func (l *Layout) without(partition, endpoint int) (*Layout, error) {
	if err := l.checkPartition(partition); err != nil {
		return nil, err
	}
	i := slices.Index(l.Partitions[partition], endpoint)
	if i < 0 {
		return nil, fmt.Errorf("cluster: endpoint %d not in partition %d", endpoint, partition)
	}
	if len(l.Partitions[partition]) == 1 {
		return nil, fmt.Errorf("cluster: endpoint %d is partition %d's last endpoint", endpoint, partition)
	}
	n := l.clone(l.Epoch + 1)
	n.Partitions[partition] = slices.Delete(n.Partitions[partition], i, i+1)
	return n, nil
}

// LayoutSnapshot is a point-in-time copy of the elastic-layout counters.
type LayoutSnapshot struct {
	Swaps         int64 // layouts atomically applied (epoch advances)
	ReplicaJoins  int64 // replicas admitted after a successful probe
	ReplicaDrains int64 // replicas drained out of the layout
	Migrations    int64 // partitions re-homed between endpoints
	ProbeFailures int64 // admission probes that failed
}

// LayoutStats tallies the elastic-layout control plane. Safe for
// concurrent use; the zero value is usable and reports epoch 0, so
// lsdgnn-server can pre-register the schema before any client exists.
type LayoutStats struct {
	mu   sync.Mutex
	snap LayoutSnapshot
	// epoch, when bound to a client's live layout, feeds the epoch gauge.
	epoch func() uint64
}

func (s *LayoutStats) add(field *int64) {
	s.mu.Lock()
	*field++
	s.mu.Unlock()
}

// Snapshot returns a copy of the counters.
func (s *LayoutStats) Snapshot() LayoutSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snap
}

// Epoch returns the live layout epoch (0 when no layout is bound).
func (s *LayoutStats) Epoch() uint64 {
	s.mu.Lock()
	f := s.epoch
	s.mu.Unlock()
	if f == nil {
		return 0
	}
	return f()
}

// StatsSnapshot implements stats.Source under the "cluster.layout" layer.
func (s *LayoutStats) StatsSnapshot() stats.Snapshot {
	s.mu.Lock()
	snap := s.snap
	f := s.epoch
	s.mu.Unlock()
	var epoch uint64
	if f != nil {
		epoch = f()
	}
	return stats.Snapshot{Layer: "cluster.layout", Metrics: []stats.Metric{
		{Name: "epoch", Value: float64(epoch)},
		{Name: "swaps", Value: float64(snap.Swaps)},
		{Name: "replica_joins", Value: float64(snap.ReplicaJoins)},
		{Name: "replica_drains", Value: float64(snap.ReplicaDrains)},
		{Name: "migrations", Value: float64(snap.Migrations)},
		{Name: "probe_failures", Value: float64(snap.ProbeFailures)},
	}}
}

// WithLayout sets the client's initial layout, its routing table: each
// partition's serving endpoints, primary first, in the order a pass tries
// them. Without it the client routes by the identity layout (partition p
// served only by endpoint p). Replicated clients pass
// WithLayout(UniformLayout(partitions, replicas)).
func WithLayout(l *Layout) ClientOption {
	return func(c *Client) { c.layout.Store(l) }
}

// Layout returns a copy of the layout the client is currently routing by,
// at the same epoch; editing it does not touch the live table.
func (c *Client) Layout() *Layout {
	l := c.layout.Load()
	return l.clone(l.Epoch)
}

// ApplyLayout atomically swaps the serving layout for nl. The new epoch
// must advance the current one; the layout is validated, deep-copied, and
// published in one atomic store. In-flight requests complete against the
// epoch they started under. On every swap, breakers belonging to departed
// endpoints are dropped — an epoch bump can never wedge a breaker open (or
// leak its half-open probe slot) against an endpoint that left.
func (c *Client) ApplyLayout(nl *Layout) error {
	c.layoutMu.Lock()
	defer c.layoutMu.Unlock()
	return c.applyLocked(nl)
}

func (c *Client) applyLocked(nl *Layout) error {
	if nl == nil {
		return errors.New("cluster: nil layout")
	}
	norm := nl.clone(nl.Epoch)
	if err := norm.Validate(c.part.Servers()); err != nil {
		return err
	}
	if old := c.layout.Load(); norm.Epoch <= old.Epoch {
		return fmt.Errorf("cluster: stale layout epoch %d (serving epoch %d)", norm.Epoch, old.Epoch)
	}
	c.layout.Store(norm)
	c.res.pruneBreakers()
	c.Lay.add(&c.Lay.snap.Swaps)
	return nil
}

// AddReplica admits a new endpoint to a partition's replica set: the
// endpoint must pass the health/parity probe against the partition's
// endpoints, and only then is appended to its list in one swap. A failed
// probe swaps nothing and counts a probe failure.
func (c *Client) AddReplica(ctx context.Context, partition, endpoint int) error {
	c.layoutMu.Lock()
	defer c.layoutMu.Unlock()
	if err := c.admitLocked(ctx, partition, endpoint); err != nil {
		return err
	}
	c.Lay.add(&c.Lay.snap.ReplicaJoins)
	return nil
}

// DrainReplica rotates an endpoint out of a partition's replica set: one
// swap removes it (new requests stop routing to it), then the call waits
// for the requests already on it to finish. Refused for the partition's
// last endpoint. ctx bounds the wait for in-flight work.
func (c *Client) DrainReplica(ctx context.Context, partition, endpoint int) error {
	c.layoutMu.Lock()
	defer c.layoutMu.Unlock()
	if err := c.retireLocked(ctx, partition, endpoint); err != nil {
		return err
	}
	c.Lay.add(&c.Lay.snap.ReplicaDrains)
	return nil
}

// MigratePartition moves a partition from one endpoint to another: the
// target is probed and added, then the source is drained, so the partition
// always has an endpoint to route to. Pair with HotShard to re-home a
// skew-heated partition without a restart.
func (c *Client) MigratePartition(ctx context.Context, partition, from, to int) error {
	c.layoutMu.Lock()
	defer c.layoutMu.Unlock()
	if !slices.Contains(c.layout.Load().Routable(partition), from) {
		return fmt.Errorf("cluster: endpoint %d is not serving partition %d", from, partition)
	}
	if err := c.admitLocked(ctx, partition, to); err != nil {
		return err
	}
	if err := c.retireLocked(ctx, partition, from); err != nil {
		return err
	}
	c.Lay.add(&c.Lay.snap.Migrations)
	return nil
}

// admitLocked probes endpoint and, if it passes, appends it to the
// partition in one swap; a failed probe counts and swaps nothing.
func (c *Client) admitLocked(ctx context.Context, partition, endpoint int) error {
	next, err := c.layout.Load().with(partition, endpoint)
	if err != nil {
		return err
	}
	if err := c.probeEndpoint(ctx, partition, endpoint); err != nil {
		c.Lay.add(&c.Lay.snap.ProbeFailures)
		return fmt.Errorf("cluster: endpoint %d failed the admission probe for partition %d: %w", endpoint, partition, err)
	}
	return c.applyLocked(next)
}

// retireLocked removes endpoint from the partition in one swap, then waits
// (bounded by ctx) for its in-flight calls.
func (c *Client) retireLocked(ctx context.Context, partition, endpoint int) error {
	next, err := c.layout.Load().without(partition, endpoint)
	if err != nil {
		return err
	}
	if err := c.applyLocked(next); err != nil {
		return err
	}
	return c.awaitIdle(ctx, endpoint)
}

// HotShard reads the client's cumulative per-partition request counters —
// the software analogue of the skew the cluster.pack/cluster.wire layers
// expose per server — and reports the hottest partition when its share
// exceeds factor × the cross-partition mean (factor > 1). The caller
// typically answers with MigratePartition.
func (c *Client) HotShard(factor float64) (partition int, hot bool) {
	if len(c.loads) == 0 || factor <= 0 {
		return 0, false
	}
	var total, max int64
	for p := range c.loads {
		n := c.loads[p].Load()
		total += n
		if n > max {
			max, partition = n, p
		}
	}
	if total == 0 {
		return 0, false
	}
	mean := float64(total) / float64(len(c.loads))
	if float64(max) > factor*mean {
		return partition, true
	}
	return 0, false
}

// awaitIdle waits until the endpoint has no in-flight requests, polling
// the tracker; ctx bounds the wait.
func (c *Client) awaitIdle(ctx context.Context, endpoint int) error {
	for {
		if c.inflight.count(endpoint) == 0 {
			return nil
		}
		t := time.NewTimer(200 * time.Microsecond)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
		t.Stop()
	}
}

// probeEndpoint health-checks a candidate before it may serve: its meta
// handshake must agree with the cluster's shape, and a spot check of
// partition-owned nodes must return adjacency lists identical to what the
// serving replicas answer. Transient faults are absorbed by the client's
// backoff loop, over the bootstrap's pass count, so chaos does not fail
// every admission.
func (c *Client) probeEndpoint(ctx context.Context, partition, endpoint int) error {
	ids := ownedSample(c.part, partition, c.meta.NumNodes, 8)
	return c.res.retry(ctx, c.setup, "endpoint", endpoint, func() error {
		return c.probeOnce(ctx, partition, endpoint, ids)
	})
}

func (c *Client) probeOnce(ctx context.Context, partition, endpoint int, ids []graph.NodeID) error {
	ctx, h := c.header(ctx)
	raw, err := c.invoke(ctx, endpoint, EncodeMetaRequest(h))
	if err != nil {
		return err
	}
	meta, err := DecodeMetaResponse(raw)
	mem.Bytes.Recycle(raw)
	if err != nil {
		return err
	}
	if meta.Partitions != c.meta.Partitions || meta.NumNodes != c.meta.NumNodes || meta.AttrLen != c.meta.AttrLen {
		return fmt.Errorf("cluster: endpoint %d shape mismatch: %d partitions / %d nodes / attr %d, cluster has %d / %d / %d",
			endpoint, meta.Partitions, meta.NumNodes, meta.AttrLen, c.meta.Partitions, c.meta.NumNodes, c.meta.AttrLen)
	}
	if len(ids) == 0 {
		return nil
	}
	got, err := c.neighborLists(ctx, endpoint, ids, nil, c.invoke)
	if err != nil {
		return err
	}
	// The reference answer comes from the partition's serving replicas via
	// the normal resilient path.
	want, err := c.neighborLists(ctx, partition, ids, nil, c.call)
	if err != nil {
		return err
	}
	for i := range got {
		if !idListsEqual(got[i], want[i]) {
			return fmt.Errorf("cluster: endpoint %d parity mismatch on node %d", endpoint, ids[i])
		}
	}
	return nil
}

func idListsEqual(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ownedSample scans the ID space for the first `want` nodes owned by the
// partition — the parity probe's spot-check set.
func ownedSample(part Partitioner, partition int, numNodes int64, want int) []graph.NodeID {
	out := make([]graph.NodeID, 0, want)
	for v := int64(0); v < numNodes && len(out) < want; v++ {
		if part.Owner(graph.NodeID(v)) == partition {
			out = append(out, graph.NodeID(v))
		}
	}
	return out
}

// inflightTracker counts in-flight transport calls per endpoint so drains
// can wait for work already on the wire.
type inflightTracker struct {
	mu     sync.Mutex
	counts map[int]int
}

func (t *inflightTracker) enter(ep int) {
	t.mu.Lock()
	if t.counts == nil {
		t.counts = make(map[int]int)
	}
	t.counts[ep]++
	t.mu.Unlock()
}

func (t *inflightTracker) exit(ep int) {
	t.mu.Lock()
	t.counts[ep]--
	t.mu.Unlock()
}

func (t *inflightTracker) count(ep int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[ep]
}
