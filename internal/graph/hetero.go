package graph

import (
	"context"
	"fmt"
	"sort"
)

// Heterogeneous graphs: AliGraph "supports a large variety of GNN models,
// including heterogeneous graph and dynamic graph" (Section 2.4). A Hetero
// holds one relation (edge type) per name over a shared node-ID space, so
// meta-path sampling (user→item→user) walks a different CSR per hop.

// Hetero is a multi-relation graph. All relations share node IDs and the
// node attribute table of the primary relation.
type Hetero struct {
	numNodes  int64
	attrLen   int
	relations map[string]*Graph
	primary   string
}

// NewHetero creates an empty heterogeneous graph over numNodes nodes.
func NewHetero(numNodes int64, attrLen int) *Hetero {
	return &Hetero{numNodes: numNodes, attrLen: attrLen, relations: map[string]*Graph{}}
}

// AddRelation attaches a relation. The graph must match the hetero node
// count and (for the first/primary relation) the attribute length.
func (h *Hetero) AddRelation(name string, g *Graph) error {
	if g.NumNodes() != h.numNodes {
		return fmt.Errorf("graph: relation %q has %d nodes, hetero has %d", name, g.NumNodes(), h.numNodes)
	}
	if _, dup := h.relations[name]; dup {
		return fmt.Errorf("graph: duplicate relation %q", name)
	}
	if len(h.relations) == 0 {
		if g.AttrLen() != h.attrLen {
			return fmt.Errorf("graph: primary relation attr %d, hetero %d", g.AttrLen(), h.attrLen)
		}
		h.primary = name
	}
	h.relations[name] = g
	return nil
}

// NumNodes returns the shared node count.
func (h *Hetero) NumNodes() int64 { return h.numNodes }

// AttrLen returns the shared attribute length.
func (h *Hetero) AttrLen() int { return h.attrLen }

// Relations lists relation names, sorted.
func (h *Hetero) Relations() []string {
	out := make([]string, 0, len(h.relations))
	for k := range h.relations {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Relation returns the named relation's graph.
func (h *Hetero) Relation(name string) (*Graph, error) {
	g, ok := h.relations[name]
	if !ok {
		return nil, fmt.Errorf("graph: no relation %q (have %v)", name, h.Relations())
	}
	return g, nil
}

// Attr appends v's attributes (from the primary relation's table).
func (h *Hetero) Attr(dst []float32, v NodeID) []float32 {
	if h.primary == "" {
		for i := 0; i < h.attrLen; i++ {
			dst = append(dst, 0)
		}
		return dst
	}
	return h.relations[h.primary].Attr(dst, v)
}

// View adapts one relation to the batch-first sampler.Store shape
// (NumNodes, AttrLen, NeighborsBatch, AttrsBatch) while attributes come
// from the shared table. The scalar Neighbors/Attr methods remain for
// per-node callers like the metapath sampler.
type heteroView struct {
	h   *Hetero
	rel *Graph
}

// RelationView returns a store-compatible view of one relation.
func (h *Hetero) RelationView(name string) (*heteroView, error) {
	g, err := h.Relation(name)
	if err != nil {
		return nil, err
	}
	return &heteroView{h: h, rel: g}, nil
}

// NumNodes implements the store shape.
func (v *heteroView) NumNodes() int64 { return v.h.numNodes }

// AttrLen implements the store shape.
func (v *heteroView) AttrLen() int { return v.h.attrLen }

// NeighborsBatch implements the batch store shape over this relation.
func (v *heteroView) NeighborsBatch(ctx context.Context, dst [][]NodeID, vs []NodeID) error {
	return v.rel.NeighborsBatch(ctx, dst, vs)
}

// AttrsBatch implements the batch store shape from the shared table, the
// primary relation's. A view exists only for an added relation, and the
// first one added is the primary, so a view always has one.
func (v *heteroView) AttrsBatch(ctx context.Context, dst []float32, vs []NodeID) error {
	return v.h.relations[v.h.primary].AttrsBatch(ctx, dst, vs)
}

// Neighbors implements the deprecated scalar store shape.
func (v *heteroView) Neighbors(n NodeID) []NodeID { return v.rel.Neighbors(n) }

// Attr implements the deprecated scalar store shape.
func (v *heteroView) Attr(dst []float32, n NodeID) []float32 { return v.h.Attr(dst, n) }
