package sampler

import (
	"context"
	"fmt"

	"lsdgnn/internal/graph"
)

// Meta-path sampling over heterogeneous graphs: each hop follows a named
// relation (user→item→user), the workflow AliGraph exposes for
// heterogeneous GNN models.

// MetaPathSampler samples k-hop neighborhoods following a relation path.
type MetaPathSampler struct {
	hetero *graph.Hetero
	hops   []Store // one relation view per hop
	path   []string
	cfg    Config
}

// NewMetaPath builds a sampler following path; cfg.Fanouts must align with
// the path (one fanout per relation hop).
func NewMetaPath(h *graph.Hetero, path []string, cfg Config) (*MetaPathSampler, error) {
	if len(path) == 0 {
		return nil, fmt.Errorf("sampler: empty meta-path")
	}
	if len(cfg.Fanouts) != len(path) {
		return nil, fmt.Errorf("sampler: %d fanouts for %d-hop meta-path", len(cfg.Fanouts), len(path))
	}
	s := &MetaPathSampler{hetero: h, path: path, cfg: cfg}
	for _, rel := range path {
		view, err := h.RelationView(rel)
		if err != nil {
			return nil, err
		}
		s.hops = append(s.hops, view)
	}
	return s, nil
}

// Path returns the relation sequence.
func (s *MetaPathSampler) Path() []string { return append([]string(nil), s.path...) }

// SampleBatch expands roots along the meta-path, producing the standard
// Result layout from KHop's derived streams. Each hop fetches the whole
// frontier through that relation's batch store before drawing, so a
// remote-backed relation view costs per-hop round trips, not per-node ones.
func (s *MetaPathSampler) SampleBatch(roots []graph.NodeID) *Result {
	ctx := context.Background()
	res := &Result{Roots: roots}
	frontier, width := roots, 1
	for hop, fanout := range s.cfg.Fanouts {
		store := s.hops[hop]
		lists := make([][]graph.NodeID, len(frontier))
		_ = store.NeighborsBatch(ctx, lists, frontier)
		next := make([]graph.NodeID, 0, len(frontier)*fanout)
		for i, v := range frontier {
			rng := expandRand(s.cfg.Seed, i/width, hop, i%width)
			before := len(next)
			var cyc int
			next, cyc = SampleNeighbors(next, lists[i], fanout, s.cfg.Method, &rng)
			res.Cycles += cyc
			for len(next)-before < fanout {
				next = append(next, v)
			}
		}
		res.Hops = append(res.Hops, next)
		frontier, width = next, width*fanout
	}
	if s.cfg.NegativeRate > 0 {
		res.Negatives = make([]graph.NodeID, 0, len(roots)*s.cfg.NegativeRate)
		n := s.hetero.NumNodes()
		for r := range roots {
			rng := negativesRand(s.cfg.Seed, r)
			for i := 0; i < s.cfg.NegativeRate; i++ {
				res.Negatives = append(res.Negatives, graph.NodeID(rng.Int63n(n)))
			}
		}
	}
	if s.cfg.FetchAttrs {
		total := len(res.Roots) + len(res.Negatives)
		for _, h := range res.Hops {
			total += len(h)
		}
		attrs := make([]float32, 0, total*s.hetero.AttrLen())
		for _, v := range res.Roots {
			attrs = s.hetero.Attr(attrs, v)
		}
		for _, hop := range res.Hops {
			for _, v := range hop {
				attrs = s.hetero.Attr(attrs, v)
			}
		}
		for _, v := range res.Negatives {
			attrs = s.hetero.Attr(attrs, v)
		}
		res.Attrs = attrs
	}
	return res
}
