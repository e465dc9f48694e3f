// Package cluster implements the distributed in-memory graph storage
// substrate of LSD-GNN: hash-partitioned graph servers, a batched RPC
// protocol for neighbor/attribute fetches, an in-process transport, a real
// TCP transport, and an event-driven network model used for the scaling
// characterization of Figure 2(b).
package cluster

import (
	"fmt"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/mem"
)

// Partitioner maps a node to the server owning it.
type Partitioner interface {
	// Owner returns the owning server index in [0, Servers()).
	Owner(v graph.NodeID) int
	// Servers returns the server count.
	Servers() int
}

// HashPartitioner spreads nodes across servers by multiplicative hashing,
// the scheme industrial frameworks default to for skew resistance.
type HashPartitioner struct{ N int }

// Owner implements Partitioner.
func (p HashPartitioner) Owner(v graph.NodeID) int {
	if p.N <= 0 {
		panic("cluster: partitioner with no servers")
	}
	h := uint64(v) * 0x9e3779b97f4a7c15
	return int(h % uint64(p.N))
}

// Servers implements Partitioner.
func (p HashPartitioner) Servers() int { return p.N }

// RangePartitioner assigns contiguous ID ranges to servers, which preserves
// locality for range-clustered graphs at the price of hub skew.
type RangePartitioner struct {
	N        int
	NumNodes int64
}

// Owner implements Partitioner.
func (p RangePartitioner) Owner(v graph.NodeID) int {
	if p.N <= 0 || p.NumNodes <= 0 {
		panic("cluster: range partitioner misconfigured")
	}
	per := (p.NumNodes + int64(p.N) - 1) / int64(p.N)
	o := int(int64(v) / per)
	if o >= p.N {
		o = p.N - 1
	}
	return o
}

// Servers implements Partitioner.
func (p RangePartitioner) Servers() int { return p.N }

// GroupByOwner lays ids out server by server, in input order: server s's
// IDs are grp[off[s]:off[s+1]], and pos[j] is grp[j]'s index in ids. All
// three are pooled scratch the caller puts back.
func GroupByOwner(p Partitioner, ids []graph.NodeID) (grp []graph.NodeID, pos, off []uint32) {
	n := p.Servers()
	off = mem.U32s.GetZeroed(n + 1)
	for _, v := range ids {
		off[p.Owner(v)+1]++
	}
	for s := 1; s <= n; s++ {
		off[s] += off[s-1]
	}
	// Placing moves each start to the next server's; one shift undoes it.
	grp, pos = mem.IDs.Get(len(ids)), mem.U32s.Get(len(ids))
	for i, v := range ids {
		o := p.Owner(v)
		grp[off[o]], pos[off[o]] = v, uint32(i)
		off[o]++
	}
	copy(off[1:], off[:n])
	off[0] = 0
	return grp, pos, off
}

// ValidatePartitioner checks invariants over a sample of the ID space and
// returns an error describing the first violation.
func ValidatePartitioner(p Partitioner, numNodes int64) error {
	if p.Servers() <= 0 {
		return fmt.Errorf("cluster: partitioner reports %d servers", p.Servers())
	}
	step := numNodes/1024 + 1
	for v := int64(0); v < numNodes; v += step {
		o := p.Owner(graph.NodeID(v))
		if o < 0 || o >= p.Servers() {
			return fmt.Errorf("cluster: node %d mapped to server %d of %d", v, o, p.Servers())
		}
	}
	return nil
}
