package cluster

import (
	"lsdgnn/internal/graph"
)

// Shard extraction: production servers hold only their partition of the
// graph, not the whole thing. ExtractShard builds a graph over the same
// node-ID space containing a copy of the adjacency lists (and materialized
// attributes) of nodes the partition owns, in the order g holds them — a
// Server backed by the shard answers identically for owned nodes while
// using ~1/P of the memory.

// ExtractShard returns partition p's shard of g under part.
func ExtractShard(g *graph.Graph, part Partitioner, p int) (*graph.Graph, error) {
	if err := ValidatePartitioner(part, g.NumNodes()); err != nil {
		return nil, err
	}
	return g.Subgraph(func(v graph.NodeID) bool { return part.Owner(v) == p }), nil
}

// ShardServer builds a Server holding only its own shard.
func ShardServer(g *graph.Graph, part Partitioner, p int) (*Server, error) {
	shard, err := ExtractShard(g, part, p)
	if err != nil {
		return nil, err
	}
	return NewServer(shard, part, p), nil
}
