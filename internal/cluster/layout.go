package cluster

import (
	"context"
	"errors"
	"fmt"
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
// versioned object: an immutable, epoch-numbered Layout that the client
// swaps atomically, plus the control-plane primitives built on it —
// replica add (admitted only after a health/parity probe), replica drain
// (stops routing, lets in-flight frames finish, then removes), and
// partition migration (a brief dual-home window moving serving
// responsibility between endpoints). In-flight requests complete against
// the epoch they started under; retry passes re-resolve their endpoint set
// from the live layout, so they land on the new epoch.

// EndpointState is an endpoint's position in a partition's replica set.
type EndpointState uint8

// Endpoint states: serving endpoints take traffic; a joining endpoint is
// warming (probed but not yet routed to); a draining endpoint takes no new
// requests while its in-flight work completes.
const (
	EndpointServing EndpointState = iota
	EndpointJoining
	EndpointDraining
)

func (s EndpointState) String() string {
	switch s {
	case EndpointServing:
		return "serving"
	case EndpointJoining:
		return "joining"
	case EndpointDraining:
		return "draining"
	default:
		return fmt.Sprintf("EndpointState(%d)", int(s))
	}
}

// LayoutEndpoint is one endpoint's membership in a partition's replica set.
type LayoutEndpoint struct {
	// ID is the transport endpoint index.
	ID int
	// State gates routing: only serving endpoints receive new requests.
	State EndpointState
}

// Layout is the versioned partition→endpoints routing table. Each partition
// lists the endpoints holding its shard (entry 0 of the serving subset is
// the preferred primary) together with their lifecycle state. Layouts are
// immutable: the With* methods return a copy with the epoch advanced, and
// Client.ApplyLayout swaps the active layout atomically — the partition
// *count* never changes across epochs (partitioners key on it), only the
// endpoint sets do.
//
// Build one with NewLayout or UniformLayout; derive successors with the
// mutators. A zero Layout is not valid.
type Layout struct {
	// Epoch numbers the layout generation, starting at 1. ApplyLayout
	// refuses a layout whose epoch does not advance the one being served.
	Epoch uint64
	// Partitions lists, per partition, the endpoints holding that shard.
	Partitions [][]LayoutEndpoint

	// routable caches, per partition, the serving endpoints in listed
	// order — what the resilience layer iterates. Never mutated after
	// finalize, so readers share it without copying.
	routable [][]int
	// dual marks partitions inside a migration's dual-home window.
	dual []bool
	// members maps endpoint → partition for every listed endpoint.
	members map[int]int
}

// NewLayout builds the epoch-1 layout in which every endpoint of m serves.
// A nil ReplicaMap yields the identity layout: partition p served only by
// endpoint p. A map shorter than partitions, an empty row or a negative
// endpoint is rejected.
func NewLayout(partitions int, m ReplicaMap) (*Layout, error) {
	if partitions < 1 {
		return nil, fmt.Errorf("cluster: layout over %d partitions", partitions)
	}
	if m != nil && len(m) < partitions {
		return nil, fmt.Errorf("cluster: replica map covers %d of %d partitions", len(m), partitions)
	}
	l := &Layout{Epoch: 1, Partitions: make([][]LayoutEndpoint, partitions)}
	for p := range l.Partitions {
		eps := []int{p}
		if m != nil {
			eps = m[p]
		}
		row := make([]LayoutEndpoint, len(eps))
		for i, ep := range eps {
			row[i] = LayoutEndpoint{ID: ep, State: EndpointServing}
		}
		l.Partitions[p] = row
	}
	if err := l.finalize(); err != nil {
		return nil, err
	}
	return l, nil
}

// UniformLayout is NewLayout over UniformReplicas: the canonical replicated
// layout (replica r of partition p at endpoint r*partitions+p) as a
// versioned epoch-1 Layout. Panics on partitions < 1, like UniformReplicas.
func UniformLayout(partitions, replicas int) *Layout {
	l, err := NewLayout(partitions, UniformReplicas(partitions, replicas))
	if err != nil {
		panic(err)
	}
	return l
}

// NumPartitions returns the partition count (stable across epochs).
func (l *Layout) NumPartitions() int { return len(l.Partitions) }

// Routable returns the partition's serving endpoints, preferred primary
// first. The slice is shared and must not be modified.
func (l *Layout) Routable(partition int) []int {
	if partition < 0 || partition >= len(l.routable) {
		return nil
	}
	return l.routable[partition]
}

// Contains reports whether the endpoint appears anywhere in the layout,
// in any state.
func (l *Layout) Contains(endpoint int) bool {
	_, ok := l.members[endpoint]
	return ok
}

// PartitionOf returns the partition an endpoint is listed under.
func (l *Layout) PartitionOf(endpoint int) (int, bool) {
	p, ok := l.members[endpoint]
	return p, ok
}

// State returns the endpoint's lifecycle state within the partition.
func (l *Layout) State(partition, endpoint int) (EndpointState, bool) {
	if partition < 0 || partition >= len(l.Partitions) {
		return 0, false
	}
	for _, e := range l.Partitions[partition] {
		if e.ID == endpoint {
			return e.State, true
		}
	}
	return 0, false
}

// DualHome reports whether the partition is inside a migration's dual-home
// window (two endpoints hold the shard while responsibility moves).
func (l *Layout) DualHome(partition int) bool {
	return partition >= 0 && partition < len(l.dual) && l.dual[partition]
}

// Endpoints returns a copy of the endpoint→partition membership map.
// Derived from Partitions rather than the routing cache so it also works on
// caller-constructed layouts that have not been normalized yet (e.g. the
// one handed to core.NewSystem before the client finalizes it).
func (l *Layout) Endpoints() map[int]int {
	out := make(map[int]int, len(l.Partitions)*2)
	for p, row := range l.Partitions {
		for _, e := range row {
			out[e.ID] = p
		}
	}
	return out
}

// Validate checks the layout is well-formed over the given partition
// count: every partition keeps at least one serving endpoint, no endpoint
// is listed twice or under two partitions, no negative endpoint indices.
func (l *Layout) Validate(partitions int) error {
	if len(l.Partitions) != partitions {
		return fmt.Errorf("cluster: layout covers %d of %d partitions", len(l.Partitions), partitions)
	}
	return l.check()
}

func (l *Layout) check() error {
	owners := make(map[int]int, len(l.Partitions)*2)
	for p, row := range l.Partitions {
		serving := 0
		for _, e := range row {
			if e.ID < 0 {
				return fmt.Errorf("cluster: partition %d lists negative endpoint %d", p, e.ID)
			}
			if prev, ok := owners[e.ID]; ok {
				if prev == p {
					return fmt.Errorf("cluster: partition %d lists endpoint %d twice", p, e.ID)
				}
				return fmt.Errorf("cluster: endpoint %d listed for partitions %d and %d — one endpoint holds one shard", e.ID, prev, p)
			}
			owners[e.ID] = p
			if e.State == EndpointServing {
				serving++
			}
		}
		if serving == 0 {
			return fmt.Errorf("cluster: partition %d has no serving endpoint", p)
		}
	}
	return nil
}

// finalize validates and builds the derived routing caches.
func (l *Layout) finalize() error {
	if err := l.check(); err != nil {
		return err
	}
	l.routable = make([][]int, len(l.Partitions))
	l.members = make(map[int]int, len(l.Partitions)*2)
	for p, row := range l.Partitions {
		eps := make([]int, 0, len(row))
		for _, e := range row {
			l.members[e.ID] = p
			if e.State == EndpointServing {
				eps = append(eps, e.ID)
			}
		}
		l.routable[p] = eps
	}
	if l.dual == nil {
		l.dual = make([]bool, len(l.Partitions))
	}
	return nil
}

// clone deep-copies the mutable parts and advances the epoch; the caller
// mutates the copy and finalizes.
func (l *Layout) clone() *Layout {
	n := &Layout{Epoch: l.Epoch + 1, Partitions: make([][]LayoutEndpoint, len(l.Partitions))}
	for p, row := range l.Partitions {
		n.Partitions[p] = append([]LayoutEndpoint(nil), row...)
	}
	if l.dual != nil {
		n.dual = append([]bool(nil), l.dual...)
	}
	return n
}

// normalized returns a finalized deep copy at the same epoch, so applying
// a caller-constructed layout never shares mutable state with it.
func (l *Layout) normalized() (*Layout, error) {
	n := l.clone()
	n.Epoch = l.Epoch
	if err := n.finalize(); err != nil {
		return nil, err
	}
	return n, nil
}

func (l *Layout) checkPartition(partition int) error {
	if partition < 0 || partition >= len(l.Partitions) {
		return fmt.Errorf("cluster: no partition %d in layout", partition)
	}
	return nil
}

// WithJoining returns the next epoch with endpoint added to the partition
// in the joining state: listed (and probe-able) but not yet routed to.
func (l *Layout) WithJoining(partition, endpoint int) (*Layout, error) {
	if err := l.checkPartition(partition); err != nil {
		return nil, err
	}
	if p, ok := l.members[endpoint]; ok {
		return nil, fmt.Errorf("cluster: endpoint %d already in the layout (partition %d)", endpoint, p)
	}
	n := l.clone()
	n.Partitions[partition] = append(n.Partitions[partition], LayoutEndpoint{ID: endpoint, State: EndpointJoining})
	if err := n.finalize(); err != nil {
		return nil, err
	}
	return n, nil
}

// WithServing returns the next epoch with the endpoint serving the
// partition: a listed endpoint (joining or draining) is promoted in place,
// an unlisted one is appended directly — the unprobed path, for callers
// that have verified the endpoint themselves.
func (l *Layout) WithServing(partition, endpoint int) (*Layout, error) {
	if err := l.checkPartition(partition); err != nil {
		return nil, err
	}
	if p, ok := l.members[endpoint]; ok && p != partition {
		return nil, fmt.Errorf("cluster: endpoint %d already holds partition %d", endpoint, p)
	}
	n := l.clone()
	promoted := false
	for i := range n.Partitions[partition] {
		if n.Partitions[partition][i].ID == endpoint {
			n.Partitions[partition][i].State = EndpointServing
			promoted = true
			break
		}
	}
	if !promoted {
		n.Partitions[partition] = append(n.Partitions[partition], LayoutEndpoint{ID: endpoint, State: EndpointServing})
	}
	if err := n.finalize(); err != nil {
		return nil, err
	}
	return n, nil
}

// WithDraining returns the next epoch with the endpoint marked draining:
// removed from the routable set so no new requests land on it, while
// in-flight work completes. Refused for the partition's last serving
// endpoint — that would blackhole the shard.
func (l *Layout) WithDraining(partition, endpoint int) (*Layout, error) {
	if err := l.checkPartition(partition); err != nil {
		return nil, err
	}
	st, ok := l.State(partition, endpoint)
	if !ok {
		return nil, fmt.Errorf("cluster: endpoint %d not in partition %d", endpoint, partition)
	}
	if st == EndpointServing && len(l.routable[partition]) == 1 {
		return nil, fmt.Errorf("cluster: endpoint %d is partition %d's last serving endpoint", endpoint, partition)
	}
	n := l.clone()
	for i := range n.Partitions[partition] {
		if n.Partitions[partition][i].ID == endpoint {
			n.Partitions[partition][i].State = EndpointDraining
		}
	}
	if err := n.finalize(); err != nil {
		return nil, err
	}
	return n, nil
}

// Without returns the next epoch with the endpoint removed from the
// partition entirely. Refused for the last serving endpoint.
func (l *Layout) Without(partition, endpoint int) (*Layout, error) {
	if err := l.checkPartition(partition); err != nil {
		return nil, err
	}
	st, ok := l.State(partition, endpoint)
	if !ok {
		return nil, fmt.Errorf("cluster: endpoint %d not in partition %d", endpoint, partition)
	}
	if st == EndpointServing && len(l.routable[partition]) == 1 {
		return nil, fmt.Errorf("cluster: endpoint %d is partition %d's last serving endpoint", endpoint, partition)
	}
	n := l.clone()
	row := n.Partitions[partition][:0]
	for _, e := range n.Partitions[partition] {
		if e.ID != endpoint {
			row = append(row, e)
		}
	}
	n.Partitions[partition] = row
	if err := n.finalize(); err != nil {
		return nil, err
	}
	return n, nil
}

// WithDualHome returns the next epoch with the partition's dual-home
// window opened (true) or closed (false).
func (l *Layout) WithDualHome(partition int, on bool) (*Layout, error) {
	if err := l.checkPartition(partition); err != nil {
		return nil, err
	}
	n := l.clone()
	n.dual[partition] = on
	if err := n.finalize(); err != nil {
		return nil, err
	}
	return n, nil
}

// LayoutSnapshot is a point-in-time copy of the elastic-layout counters.
type LayoutSnapshot struct {
	Swaps            int64 // layouts atomically applied (epoch advances)
	ReplicaJoins     int64 // replicas admitted after a successful probe
	ReplicaDrains    int64 // replicas drained out of the layout
	Migrations       int64 // partitions re-homed between endpoints
	DualHomeRequests int64 // requests issued inside a dual-home window
	ProbeFailures    int64 // admission probes that failed
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
		{Name: "dual_home_requests", Value: float64(snap.DualHomeRequests), Unit: "req"},
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

// Layout returns the layout the client is currently routing by.
func (c *Client) Layout() *Layout { return c.layout.Load() }

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
	norm, err := nl.normalized()
	if err != nil {
		return err
	}
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
// endpoint is published as joining (visible, not routed to), must pass the
// health/parity probe against the serving replicas, and only then is
// promoted to serving. A failed probe rolls the endpoint back out of the
// layout and counts a probe failure.
func (c *Client) AddReplica(ctx context.Context, partition, endpoint int) error {
	c.layoutMu.Lock()
	defer c.layoutMu.Unlock()
	if err := c.admitLocked(ctx, partition, endpoint, false); err != nil {
		return err
	}
	c.Lay.add(&c.Lay.snap.ReplicaJoins)
	return nil
}

// DrainReplica rotates an endpoint out of a partition's replica set: the
// endpoint is marked draining (new requests stop routing to it at the
// epoch swap), in-flight requests finish against it, and it is then
// removed from the layout. Refused for the partition's last serving
// endpoint. ctx bounds the wait for in-flight work.
func (c *Client) DrainReplica(ctx context.Context, partition, endpoint int) error {
	c.layoutMu.Lock()
	defer c.layoutMu.Unlock()
	if err := c.retireLocked(ctx, partition, endpoint, false); err != nil {
		return err
	}
	c.Lay.add(&c.Lay.snap.ReplicaDrains)
	return nil
}

// MigratePartition moves a partition's serving responsibility from one
// endpoint to another with a brief dual-home window: the target joins and
// is probed, both endpoints serve while the window is open, then the
// source drains and leaves. Pair with HotShard to re-home a skew-heated
// partition without a restart.
func (c *Client) MigratePartition(ctx context.Context, partition, from, to int) error {
	c.layoutMu.Lock()
	defer c.layoutMu.Unlock()
	if st, ok := c.layout.Load().State(partition, from); !ok || st != EndpointServing {
		return fmt.Errorf("cluster: endpoint %d is not serving partition %d", from, partition)
	}
	if err := c.admitLocked(ctx, partition, to, true); err != nil {
		return err
	}
	// Drain the old home: new requests route only to the target while the
	// source finishes what it already holds.
	if err := c.retireLocked(ctx, partition, from, true); err != nil {
		return err
	}
	c.Lay.add(&c.Lay.snap.Migrations)
	return nil
}

// admitLocked publishes endpoint as joining the partition, probes it, and
// promotes it to serving — opening the partition's dual-home window when
// migrate is set — or, on a failed probe, counts the failure and rolls the
// endpoint back out of the layout.
func (c *Client) admitLocked(ctx context.Context, partition, endpoint int, migrate bool) error {
	join, err := c.layout.Load().WithJoining(partition, endpoint)
	if err != nil {
		return err
	}
	if err := c.applyLocked(join); err != nil {
		return err
	}
	if perr := c.probeEndpoint(ctx, partition, endpoint); perr != nil {
		c.Lay.add(&c.Lay.snap.ProbeFailures)
		if back, berr := c.layout.Load().Without(partition, endpoint); berr == nil {
			_ = c.applyLocked(back)
		}
		what := "admission"
		if migrate {
			what = "migration"
		}
		return fmt.Errorf("cluster: endpoint %d failed the %s probe for partition %d: %w", endpoint, what, partition, perr)
	}
	serve, err := c.layout.Load().WithServing(partition, endpoint)
	if err == nil && migrate {
		serve, err = serve.WithDualHome(partition, true)
	}
	if err != nil {
		return err
	}
	return c.applyLocked(serve)
}

// retireLocked marks endpoint draining, waits (bounded by ctx) for its
// in-flight calls, and removes it from the partition — closing the
// dual-home window when migrate is set.
func (c *Client) retireLocked(ctx context.Context, partition, endpoint int, migrate bool) error {
	d, err := c.layout.Load().WithDraining(partition, endpoint)
	if err != nil {
		return err
	}
	if err := c.applyLocked(d); err != nil {
		return err
	}
	if err := c.awaitIdle(ctx, endpoint); err != nil {
		return err
	}
	out, err := c.layout.Load().Without(partition, endpoint)
	if err == nil && migrate {
		out, err = out.WithDualHome(partition, false)
	}
	if err != nil {
		return err
	}
	return c.applyLocked(out)
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
	got, err := c.neighborLists(ctx, endpoint, ids, c.invoke)
	if err != nil {
		return err
	}
	// The reference answer comes from the partition's serving replicas via
	// the normal resilient path.
	want, err := c.neighborLists(ctx, partition, ids, c.call)
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
