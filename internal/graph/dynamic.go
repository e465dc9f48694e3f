package graph

import (
	"context"
	"fmt"
	"sync"
)

// Dynamic graphs: the other AliGraph capability the paper highlights. A
// Dynamic overlays a mutable delta-adjacency on an immutable CSR base, so
// ingestion (new edges arriving from the production event stream) proceeds
// without rebuilding the CSR; a Compact rebuilds the base periodically.
type Dynamic struct {
	mu    sync.RWMutex
	base  *Graph
	delta map[NodeID][]NodeID
	added int64
}

// NewDynamic wraps base with an empty delta.
func NewDynamic(base *Graph) *Dynamic {
	return &Dynamic{base: base, delta: map[NodeID][]NodeID{}}
}

// NumNodes returns the node count (fixed by the base; dynamic node
// insertion is modeled by pre-provisioning IDs, as production systems do).
func (d *Dynamic) NumNodes() int64 { return d.base.NumNodes() }

// AttrLen returns the attribute length.
func (d *Dynamic) AttrLen() int { return d.base.AttrLen() }

// Attr appends v's attributes.
func (d *Dynamic) Attr(dst []float32, v NodeID) []float32 { return d.base.Attr(dst, v) }

// AddEdge appends a directed edge to the delta.
func (d *Dynamic) AddEdge(src, dst NodeID) error {
	if !d.base.HasNode(src) || !d.base.HasNode(dst) {
		return fmt.Errorf("graph: dynamic edge (%d,%d) out of range", src, dst)
	}
	d.mu.Lock()
	d.delta[src] = append(d.delta[src], dst)
	d.added++
	d.mu.Unlock()
	return nil
}

// Neighbors returns base neighbors followed by delta neighbors. The result
// is freshly allocated when a delta exists (base slices stay immutable).
func (d *Dynamic) Neighbors(v NodeID) []NodeID {
	base := d.base.Neighbors(v)
	d.mu.RLock()
	extra := d.delta[v]
	if len(extra) == 0 {
		d.mu.RUnlock()
		return base
	}
	out := make([]NodeID, 0, len(base)+len(extra))
	out = append(out, base...)
	out = append(out, extra...)
	d.mu.RUnlock()
	return out
}

// NeighborsBatch implements the batch store shape: live adjacency (base
// plus delta) for every requested vertex.
func (d *Dynamic) NeighborsBatch(ctx context.Context, dst [][]NodeID, vs []NodeID) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for i, v := range vs {
		dst[i] = d.Neighbors(v)
	}
	return nil
}

// AttrsBatch implements the batch store shape.
func (d *Dynamic) AttrsBatch(ctx context.Context, dst []float32, vs []NodeID) error {
	return d.base.AttrsBatch(ctx, dst, vs)
}

// NumEdges returns base plus delta edge count.
func (d *Dynamic) NumEdges() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.base.NumEdges() + d.added
}

// DeltaEdges returns the number of not-yet-compacted edges.
func (d *Dynamic) DeltaEdges() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.added
}

// Compact rebuilds the base CSR with the delta folded in and clears the
// delta. Attribute storage carries over (procedural graphs keep their
// seed; materialized ones copy vectors).
func (d *Dynamic) Compact() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	b := NewBuilder(d.base.NumNodes(), d.base.AttrLen())
	for v := int64(0); v < d.base.NumNodes(); v++ {
		for _, u := range d.base.Neighbors(NodeID(v)) {
			if err := b.AddEdge(NodeID(v), u); err != nil {
				return err
			}
		}
		for _, u := range d.delta[NodeID(v)] {
			if err := b.AddEdge(NodeID(v), u); err != nil {
				return err
			}
		}
	}
	if !d.base.procedural {
		var buf []float32
		for v := int64(0); v < d.base.NumNodes(); v++ {
			buf = d.base.Attr(buf[:0], NodeID(v))
			if err := b.SetAttr(NodeID(v), buf); err != nil {
				return err
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		return err
	}
	if d.base.procedural {
		g.procedural = true
		g.attrSeed = d.base.attrSeed
	}
	d.base = g
	d.delta = map[NodeID][]NodeID{}
	d.added = 0
	return nil
}
