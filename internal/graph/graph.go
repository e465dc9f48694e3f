// Package graph implements the in-memory graph storage substrate used by the
// LSD-GNN system: CSR adjacency, node attributes (stored or procedurally
// generated), and synthetic graph generators matching the paper's dataset
// statistics (Table 2).
package graph

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
)

// NodeID identifies a vertex.
type NodeID uint64

// Graph is an immutable directed graph in CSR form with fixed-length float32
// node attributes. Build one with a Builder or a generator.
//
// Attribute storage is either materialized ([]float32, node-major) or
// procedural (computed from the node ID on demand); procedural attributes
// let simulations work with graphs whose attribute matrices would not fit
// in memory, while preserving deterministic values.
type Graph struct {
	numNodes int64
	offsets  []int64  // len numNodes+1
	edges    []NodeID // len numEdges
	attrLen  int

	attrs      []float32 // materialized attributes, nil if procedural
	procedural bool
	attrSeed   uint64
}

// NumNodes returns the vertex count.
func (g *Graph) NumNodes() int64 { return g.numNodes }

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() int64 { return int64(len(g.edges)) }

// AttrLen returns the per-node attribute vector length.
func (g *Graph) AttrLen() int { return g.attrLen }

// Degree returns the out-degree of v.
func (g *Graph) Degree(v NodeID) int {
	if !g.HasNode(v) {
		return 0
	}
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the out-neighbors of v. The returned slice aliases the
// graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	if !g.HasNode(v) {
		return nil
	}
	return g.edges[g.offsets[v]:g.offsets[v+1]]
}

// NeighborsBatch fills dst[i] with vs[i]'s out-neighbors, the
// sampler.Store shape. Every list aliases the graph's immutable storage.
func (g *Graph) NeighborsBatch(ctx context.Context, dst [][]NodeID, vs []NodeID) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for i, v := range vs {
		dst[i] = g.Neighbors(v)
	}
	return nil
}

// HasNode reports whether v is a valid node ID. It compares in uint64
// space: IDs at or above 2^63 would turn negative as int64 and pass a
// signed check.
func (g *Graph) HasNode(v NodeID) bool { return uint64(v) < uint64(g.numNodes) }

// EdgeRange returns the half-open index range of v's adjacency list within
// the global edge array — the CSR offsets hardware address calculations use.
func (g *Graph) EdgeRange(v NodeID) (start, end int64) {
	if !g.HasNode(v) {
		return 0, 0
	}
	return g.offsets[v], g.offsets[v+1]
}

// Attr appends the attribute vector of v to dst and returns the result.
// For procedural graphs the values are a deterministic function of (seed, v).
func (g *Graph) Attr(dst []float32, v NodeID) []float32 {
	if !g.HasNode(v) {
		for i := 0; i < g.attrLen; i++ {
			dst = append(dst, 0)
		}
		return dst
	}
	if !g.procedural {
		base := int64(v) * int64(g.attrLen)
		return append(dst, g.attrs[base:base+int64(g.attrLen)]...)
	}
	return ProceduralAttr(dst, g.attrSeed, g.attrLen, v)
}

// ProceduralAttr appends the deterministic procedural attribute vector of
// (seed, v) to dst — the exact function procedural graphs evaluate in
// Attr. Exported so out-of-process attribute storage (the disk store's
// procedural segments) reproduces bit-identical values without holding a
// *Graph.
func ProceduralAttr(dst []float32, seed uint64, attrLen int, v NodeID) []float32 {
	h := splitmix64(seed ^ uint64(v)*0x9e3779b97f4a7c15)
	for i := 0; i < attrLen; i++ {
		h = splitmix64(h)
		dst = append(dst, attrFloat(h))
	}
	return dst
}

// attrFloat maps one splitmix64 output to [-1, 1).
func attrFloat(h uint64) float32 { return float32(int64(h>>11))/float32(1<<52) - 1 }

// AttrsBatch writes the attribute vectors of vs row-major into dst
// (len(vs) × AttrLen), the sampler.Store shape. Procedural graphs generate
// the whole request in one ProceduralAttrs call. IDs outside the graph
// read as zeros, as in Attr.
func (g *Graph) AttrsBatch(ctx context.Context, dst []float32, vs []NodeID) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	al := g.attrLen
	if g.procedural {
		ProceduralAttrs(dst, g.attrSeed, al, vs)
	}
	for i, v := range vs {
		row := dst[i*al : (i+1)*al]
		switch {
		case !g.HasNode(v):
			clear(row)
		case !g.procedural:
			copy(row, g.attrs[int64(v)*int64(al):])
		}
	}
	return nil
}

// ProceduralAttrs writes the procedural vectors of (seed, v) for every v
// in vs row-major into dst, which must hold len(vs)×attrLen floats. The
// values are bit-identical to ProceduralAttr's. On a CPU with AVX-512 every
// full group of 32 IDs goes through a vector kernel that runs their 32
// chains at once (proceduralWide); the IDs left over go through
// proceduralLanes.
func ProceduralAttrs(dst []float32, seed uint64, attrLen int, vs []NodeID) {
	n := 0
	if haveWide {
		n = proceduralWide(dst, seed, attrLen, vs)
	}
	proceduralLanes(dst[n*attrLen:], seed, attrLen, vs[n:])
}

// proceduralLanes is ProceduralAttrs' portable loop: it runs four nodes'
// splitmix64 chains side by side so their multiplies overlap instead of
// each vector waiting on one serial chain. IDs left over after the last
// group of four go through ProceduralAttr.
func proceduralLanes(dst []float32, seed uint64, attrLen int, vs []NodeID) {
	i := 0
	for ; i+4 <= len(vs); i += 4 {
		h0 := splitmix64(seed ^ uint64(vs[i])*0x9e3779b97f4a7c15)
		h1 := splitmix64(seed ^ uint64(vs[i+1])*0x9e3779b97f4a7c15)
		h2 := splitmix64(seed ^ uint64(vs[i+2])*0x9e3779b97f4a7c15)
		h3 := splitmix64(seed ^ uint64(vs[i+3])*0x9e3779b97f4a7c15)
		d0 := dst[i*attrLen : (i+1)*attrLen]
		d1 := dst[(i+1)*attrLen : (i+2)*attrLen]
		d2 := dst[(i+2)*attrLen : (i+3)*attrLen]
		d3 := dst[(i+3)*attrLen : (i+4)*attrLen]
		for j := range d0 {
			h0, h1, h2, h3 = splitmix64(h0), splitmix64(h1), splitmix64(h2), splitmix64(h3)
			d0[j] = attrFloat(h0)
			d1[j] = attrFloat(h1)
			d2[j] = attrFloat(h2)
			d3[j] = attrFloat(h3)
		}
	}
	for ; i < len(vs); i++ {
		ProceduralAttr(dst[i*attrLen:i*attrLen], seed, attrLen, vs[i])
	}
}

// AttrSeed returns the procedural attribute seed (0 when attributes are
// materialized); persistent stores record it so reopened segments generate
// identical procedural attributes.
func (g *Graph) AttrSeed() uint64 {
	if !g.procedural {
		return 0
	}
	return g.attrSeed
}

// AttrBytes returns the size in bytes of one node's attribute vector.
func (g *Graph) AttrBytes() int { return g.attrLen * 4 }

// StructureBytes returns the approximate memory footprint of the adjacency
// structure (offsets + edge list).
func (g *Graph) StructureBytes() int64 {
	return int64(len(g.offsets))*8 + int64(len(g.edges))*8
}

// FootprintBytes returns the approximate total in-memory footprint,
// counting attributes whether or not they are materialized (procedural
// graphs stand in for graphs that would really store them).
func (g *Graph) FootprintBytes() int64 {
	return g.StructureBytes() + g.numNodes*int64(g.attrLen)*4
}

// Materialized reports whether attributes are stored (vs procedural).
func (g *Graph) Materialized() bool { return !g.procedural }

// Subgraph returns the graph over the same node-ID space that holds only
// the adjacency lists and materialized attributes of the nodes keep
// accepts; procedural graphs keep their seed, so every node's attributes
// stay identical. It is a plain copy: each list keeps its order, which
// Build and Load both guarantee is ascending. Shard extraction copies each
// partition straight out of the CSR this way, allocating only the result.
func (g *Graph) Subgraph(keep func(NodeID) bool) *Graph {
	s := &Graph{numNodes: g.numNodes, attrLen: g.attrLen, offsets: make([]int64, g.numNodes+1),
		procedural: g.procedural, attrSeed: g.attrSeed}
	for v := int64(0); v < g.numNodes; v++ {
		s.offsets[v+1] = s.offsets[v]
		if keep(NodeID(v)) {
			s.offsets[v+1] += g.offsets[v+1] - g.offsets[v]
		}
	}
	s.edges = make([]NodeID, s.offsets[g.numNodes])
	if !g.procedural {
		s.attrs = make([]float32, len(g.attrs))
	}
	for v := int64(0); v < g.numNodes; v++ {
		if !keep(NodeID(v)) {
			continue
		}
		copy(s.edges[s.offsets[v]:s.offsets[v+1]], g.edges[g.offsets[v]:g.offsets[v+1]])
		if s.attrs != nil {
			row := v * int64(g.attrLen)
			copy(s.attrs[row:row+int64(g.attrLen)], g.attrs[row:])
		}
	}
	return s
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Builder accumulates edges and produces a CSR Graph.
type Builder struct {
	numNodes int64
	attrLen  int
	srcs     []NodeID
	dsts     []NodeID
	attrs    []float32
}

// NewBuilder creates a builder for a graph with numNodes vertices and
// attrLen-float attributes.
func NewBuilder(numNodes int64, attrLen int) *Builder {
	if numNodes < 0 {
		panic("graph: negative node count")
	}
	if attrLen < 0 {
		panic("graph: negative attribute length")
	}
	return &Builder{numNodes: numNodes, attrLen: attrLen}
}

// AddEdge records a directed edge src→dst.
func (b *Builder) AddEdge(src, dst NodeID) error {
	if uint64(src) >= uint64(b.numNodes) || uint64(dst) >= uint64(b.numNodes) {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", src, dst, b.numNodes)
	}
	b.srcs = append(b.srcs, src)
	b.dsts = append(b.dsts, dst)
	return nil
}

// SetAttr stores the attribute vector for node v. Vectors must have length
// attrLen. Nodes without a set attribute default to zeros.
func (b *Builder) SetAttr(v NodeID, attr []float32) error {
	if uint64(v) >= uint64(b.numNodes) {
		return fmt.Errorf("graph: node %d out of range", v)
	}
	if len(attr) != b.attrLen {
		return fmt.Errorf("graph: attribute length %d, want %d", len(attr), b.attrLen)
	}
	if b.attrs == nil {
		b.attrs = make([]float32, b.numNodes*int64(b.attrLen))
	}
	copy(b.attrs[int64(v)*int64(b.attrLen):], attr)
	return nil
}

// Build produces the immutable CSR graph. The builder must not be reused.
func (b *Builder) Build() (*Graph, error) {
	if b.numNodes == 0 && len(b.srcs) > 0 {
		return nil, errors.New("graph: edges without nodes")
	}
	g := &Graph{
		numNodes: b.numNodes,
		attrLen:  b.attrLen,
		offsets:  make([]int64, b.numNodes+1),
		edges:    make([]NodeID, len(b.srcs)),
	}
	// Counting sort by source.
	for _, s := range b.srcs {
		g.offsets[s+1]++
	}
	for i := int64(1); i <= b.numNodes; i++ {
		g.offsets[i] += g.offsets[i-1]
	}
	cursor := make([]int64, b.numNodes)
	for i, s := range b.srcs {
		g.edges[g.offsets[s]+cursor[s]] = b.dsts[i]
		cursor[s]++
	}
	// Sort each adjacency list for deterministic iteration.
	for v := int64(0); v < b.numNodes; v++ {
		adj := g.edges[g.offsets[v]:g.offsets[v+1]]
		slices.Sort(adj)
	}
	if b.attrs != nil {
		g.attrs = b.attrs
	} else {
		g.procedural = true
		g.attrSeed = 0x5ca1ab1e
	}
	return g, nil
}

// AvgDegree returns the mean out-degree.
func (g *Graph) AvgDegree() float64 {
	if g.numNodes == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(g.numNodes)
}

// MaxDegree returns the maximum out-degree.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := int64(0); v < g.numNodes; v++ {
		if d := g.Degree(NodeID(v)); d > max {
			max = d
		}
	}
	return max
}

// DegreeHistogram returns counts of nodes bucketed by floor(log2(degree+1)).
func (g *Graph) DegreeHistogram() []int64 {
	var hist []int64
	for v := int64(0); v < g.numNodes; v++ {
		d := g.Degree(NodeID(v))
		b := int(math.Log2(float64(d + 1)))
		for len(hist) <= b {
			hist = append(hist, 0)
		}
		hist[b]++
	}
	return hist
}
