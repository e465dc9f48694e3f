// Package sampler implements the software graph-sampling baseline (the
// AliGraph-style CPU path the paper measures against) and the two random
// sampling algorithms compared in Section 4.2 Tech-2: conventional
// reservoir sampling and the paper's streaming step-based sampling.
package sampler

import (
	"context"
	"errors"
	"fmt"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/mem"
)

// Store abstracts graph storage so the same sampler runs against a local
// graph, a distributed cluster client, or the AxE functional engine. The
// interface is batch-first and context-aware: every fetch moves a vector
// of vertices in one call, so a remote-backed store turns one hop into a
// handful of grouped RPCs instead of a per-node round trip, and deadlines
// and cancellation propagate down to the transport.
//
// Degrade contract: an error that degrades implements Lost(graph.NodeID)
// bool — the store filled everything else, left the vertices Lost reports
// nil / zeroed, and the fetch stays layout-complete. Anything else fails
// the call (see KHop). On a nil or degrading return every element of dst
// is defined, whatever dst held on entry: callers may hand in an unzeroed
// buffer.
type Store interface {
	// NumNodes returns the vertex count.
	NumNodes() int64
	// AttrLen returns the attribute vector length.
	AttrLen() int
	// NeighborsBatch fills dst[i] with the out-neighbors of vs[i]. dst must
	// have len(vs) entries. The filled lists must not be modified.
	NeighborsBatch(ctx context.Context, dst [][]graph.NodeID, vs []graph.NodeID) error
	// AttrsBatch fills dst with the attribute vectors of vs, concatenated
	// in order. dst must have len(vs)*AttrLen() entries; on a nil or
	// degrading return it writes every one of them, lost vertices as zeros.
	AttrsBatch(ctx context.Context, dst []float32, vs []graph.NodeID) error
}

// Method selects the neighbor-sampling algorithm.
type Method int

// Sampling methods.
const (
	// Reservoir is the conventional approach: buffer all N candidates,
	// then draw K without replacement (N storage, N+K steps).
	Reservoir Method = iota
	// Streaming is the paper's step-based approximate sampling: split the
	// incoming N candidates into K contiguous groups and pick one uniform
	// element per group (no storage, N steps, pipeline-friendly).
	Streaming
)

func (m Method) String() string {
	switch m {
	case Reservoir:
		return "reservoir"
	case Streaming:
		return "streaming"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Steps is the abstract step count of the hardware sampler drawing up to k
// of n candidates with method m — the Tech-2 latency claim: n+k for
// Reservoir (fill then draw), n for Streaming, 2n when all n ≤ k are kept.
// Every sampling function reports it, and the AxE timing model charges it.
func Steps(n, k int, m Method) int {
	switch {
	case k <= 0 || n == 0:
		return n
	case n <= k:
		return 2 * n
	case m == Reservoir:
		return n + k
	default:
		return n
	}
}

// SampleNeighbors draws up to k of candidates using method m, drawing from
// rng. When the candidate list has at most k entries, all are returned
// (standard GNN fanout semantics). The result is appended to dst; cycles is
// Steps(len(candidates), k, m).
func SampleNeighbors(dst []graph.NodeID, candidates []graph.NodeID, k int, m Method, rng *Rand) (out []graph.NodeID, cycles int) {
	n := len(candidates)
	cycles = Steps(n, k, m)
	if k <= 0 || n == 0 {
		return dst, cycles
	}
	if n <= k {
		return append(dst, candidates...), cycles
	}
	switch m {
	case Reservoir:
		// Partial Fisher–Yates over a pooled scratch copy: exact uniform
		// K-of-N without replacement, no per-call allocation.
		scratch := mem.IDs.Get(n)
		copy(scratch, candidates)
		for i := 0; i < k; i++ {
			j := i + rng.Intn(n-i)
			scratch[i], scratch[j] = scratch[j], scratch[i]
		}
		dst = append(dst, scratch[:k]...)
		mem.IDs.Put(scratch)
		return dst, cycles
	case Streaming:
		// K groups in arrival order; one uniform pick per group. Group
		// sizes differ by at most one (remainder spread over the first
		// groups), keeping per-element inclusion probability ≈ k/n.
		q, r := n/k, n%k
		start := 0
		for g := 0; g < k; g++ {
			size := q
			if g < r {
				size++
			}
			dst = append(dst, candidates[start+rng.Intn(size)])
			start += size
		}
		return dst, cycles
	default:
		panic(fmt.Sprintf("sampler: unknown method %v", m))
	}
}

// Result holds one mini-batch sampling outcome in the AliGraph layout:
// per-hop flattened node lists plus fetched attributes.
type Result struct {
	Roots []graph.NodeID
	// Hops[h] lists sampled nodes at hop h+1, fanout-aligned: node i of
	// hop h expands to entries [i*f, (i+1)*f) of hop h+1 (padded with the
	// parent node when a vertex has no neighbors, matching framework
	// self-loop fallback).
	Hops [][]graph.NodeID
	// Negatives holds NegativeRate uniform negative samples per root.
	Negatives []graph.NodeID
	// Attrs concatenates attribute vectors for roots, all hops, then
	// negatives, in order.
	Attrs []float32
	// Cycles is the abstract sampling step count (for Tech-2 accounting).
	Cycles int

	// region owns the pooled buffers behind Hops/Negatives/Attrs when the
	// result came from KHop; Release recycles them.
	region *mem.Region
}

// Release returns the result's pooled buffers (hops, negatives,
// attributes — never the caller-provided Roots) to the shared free lists.
// After Release the result and every slice read from it are invalid; a
// caller still holding sub-slices must not call Release until it is done
// with them. Safe to call on results from non-pooled paths and safe to
// call twice — both are no-ops.
func (r *Result) Release() {
	rg := r.region
	if rg == nil {
		return
	}
	r.region = nil
	r.Hops, r.Negatives, r.Attrs = nil, nil, nil
	rg.Release()
}

// NodesFetched returns the number of attribute vectors in Attrs.
func (r *Result) NodesFetched(attrLen int) int {
	if attrLen == 0 {
		return 0
	}
	return len(r.Attrs) / attrLen
}

// Config configures a k-hop sampler.
type Config struct {
	Fanouts      []int
	NegativeRate int
	Method       Method
	FetchAttrs   bool
	Seed         int64
	// WeightFn, when set, switches neighbor selection to importance
	// weighting (e.g. DegreeWeight) while keeping Method's hardware shape.
	WeightFn WeightFunc
	// Deprecated: RootStreams is ignored. Every draw already comes from a
	// stream derived from (Seed, root index, hop, position) — see Rand — so
	// there is no other mode to select.
	RootStreams bool
}

// Sampler performs mini-batch k-hop sampling over a Store. It holds no
// generator state: Sample is a pure function of (cfg, roots) and the
// store's contents, and is safe for concurrent use.
type Sampler struct {
	store Store
	cfg   Config
}

// New creates a sampler. It panics on an empty fanout list since that
// always indicates a miswired workload.
func New(store Store, cfg Config) *Sampler {
	if len(cfg.Fanouts) == 0 {
		panic("sampler: no fanouts configured")
	}
	return &Sampler{store: store, cfg: cfg}
}

// SampleBatch is Sample with no deadline for stores that cannot fail (a
// LocalStore): degradation is ignored and a failed call panics. Remote- or
// disk-backed callers should use Sample and handle its error.
func (s *Sampler) SampleBatch(roots []graph.NodeID) *Result {
	res, err := s.Sample(context.Background(), roots)
	if res == nil {
		panic(err)
	}
	return res
}

// Sample runs KHop over the sampler's store.
func (s *Sampler) Sample(ctx context.Context, roots []graph.NodeID) (*Result, error) {
	return KHop(ctx, s.store, s.cfg, roots)
}

// RootError reports one root whose subtree lost data.
type RootError struct {
	// Index is the root's position in the batch.
	Index int
	// Root is the root vertex.
	Root graph.NodeID
	// Err is the first store error that lost a vertex the root asked for.
	Err error
}

// PartialError reports that some roots of a batch degraded: their
// subtrees carry self-loop padding and zeroed attributes where data was
// lost, while every other root is complete and exact. The Result
// accompanying a PartialError is always layout-complete.
type PartialError struct {
	Roots []RootError
	// Errs holds every degrading store error of the call, in fetch order.
	Errs []error
}

// Error implements error.
func (e *PartialError) Error() string {
	if len(e.Roots) == 1 {
		return fmt.Sprintf("sampler: root %d degraded: %v", e.Roots[0].Root, e.Roots[0].Err)
	}
	return fmt.Sprintf("sampler: %d roots degraded (first: root %d: %v)",
		len(e.Roots), e.Roots[0].Root, e.Roots[0].Err)
}

// Unwrap exposes the store errors to errors.Is / errors.As.
func (e *PartialError) Unwrap() []error { return e.Errs }

// AsPartial extracts a *PartialError from err.
func AsPartial(err error) (*PartialError, bool) {
	var pe *PartialError
	ok := errors.As(err, &pe)
	return pe, ok
}

// degradation applies Store's degrade contract to a call's fetches and
// charges each loss to the roots that asked for the lost vertices.
type degradation struct {
	PartialError
	roots []graph.NodeID
	hit   []bool // per root: already in Roots
}

// classify sorts a fetch error: nil and degrading errors (remembered)
// return a nil abort, the latter with the error's Lost; ctx expiry aborts
// with ctx.Err(), anything else with err itself.
func (d *degradation) classify(ctx context.Context, err error) (lost func(graph.NodeID) bool, abort error) {
	if err == nil {
		return nil, nil
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		return nil, ctxErr
	}
	var l interface{ Lost(graph.NodeID) bool }
	if !errors.As(err, &l) {
		return nil, err
	}
	d.Errs = append(d.Errs, err)
	return l.Lost, nil
}

// charge marks degraded every root with a lost vertex in vs, which holds
// perRoot consecutive entries per root. The error charged is the one
// classify last remembered.
func (d *degradation) charge(lost func(graph.NodeID) bool, vs []graph.NodeID, perRoot int) {
	if lost == nil {
		return
	}
	if d.hit == nil {
		d.hit = make([]bool, len(d.roots))
	}
	for i, v := range vs {
		if r := i / perRoot; !d.hit[r] && lost(v) {
			d.hit[r] = true
			d.Roots = append(d.Roots, RootError{Index: r, Root: d.roots[r], Err: d.Errs[len(d.Errs)-1]})
		}
	}
}

// KHop is the one k-hop loop (Sampler.Sample, pipeline.Executor.Sample,
// and direct callers over a cluster.Client). It is level-synchronous: each hop fetches the whole
// batch's frontier through one NeighborsBatch call and draws neighbors in
// frontier order, then draws negatives and gathers every attribute vector
// through one AttrsBatch in AttrOrder. Every draw comes from the stream of its site — (cfg.Seed, root
// index, hop, position in the root's frontier) for an expansion, (cfg.Seed,
// root index) for a root's negatives — so the output is a pure function of
// (cfg, roots, store contents) and concurrent calls are safe.
//
// Errors follow Store's degrade contract: a ctx expiry returns (nil,
// ctx.Err()); a store error implementing Lost degrades — lost positions
// pad with self-loops / zero fill, every other root stays exact, and the
// layout-complete Result comes back with a *PartialError naming each root
// that asked for a lost vertex; any other store error returns (nil, err).
//
// The result's hop, negative and attribute buffers come from the shared
// internal/mem pools; call Result.Release when done with it to recycle
// them (dropping the result without Release is safe, just unrecycled).
func KHop(ctx context.Context, store Store, cfg Config, roots []graph.NodeID) (*Result, error) {
	rg := mem.NewRegion()
	res := &Result{Roots: roots, region: rg}
	deg := degradation{roots: roots}
	frontier, width := roots, 1 // width: per-root frontier width at this hop
	for h, fanout := range cfg.Fanouts {
		lists := mem.Lists.Get(len(frontier))
		lost, err := deg.classify(ctx, store.NeighborsBatch(ctx, lists, frontier))
		if err != nil {
			mem.Lists.Put(lists)
			res.Release()
			return nil, err
		}
		deg.charge(lost, frontier, width)
		// Each frontier node contributes exactly fanout entries after
		// self-loop padding, so the hop buffer's size is exact; the capped
		// slice turns any overflow into a reallocation instead of silent
		// growth into pooled capacity.
		hopBuf := rg.IDs(len(frontier) * fanout)
		next := hopBuf[:0:len(hopBuf)]
		for i, v := range frontier {
			rng := expandRand(cfg.Seed, i/width, h, i%width)
			before := len(next)
			var cyc int
			next, cyc = ExpandNeighbors(next, v, lists[i], fanout, cfg.Method, cfg.WeightFn, &rng)
			res.Cycles += cyc
			// Pad to exact fanout with the parent (self-loop fallback).
			for len(next)-before < fanout {
				next = append(next, v)
			}
		}
		mem.Lists.Put(lists)
		res.Hops = append(res.Hops, next)
		frontier, width = next, width*fanout
	}
	if cfg.NegativeRate > 0 {
		negBuf := rg.IDs(len(roots) * cfg.NegativeRate)
		negs := negBuf[:0:len(negBuf)]
		n := store.NumNodes()
		for r := range roots {
			rng := negativesRand(cfg.Seed, r)
			for i := 0; i < cfg.NegativeRate; i++ {
				negs = append(negs, graph.NodeID(rng.Int63n(n)))
			}
		}
		res.Negatives = negs
	}
	if cfg.FetchAttrs {
		total := attrSlots(res)
		ids := appendAttrOrder(mem.IDs.Get(total)[:0], res)
		// Unzeroed: on a nil or degrading return AttrsBatch writes every
		// element, lost vertices as zeros (the Store contract).
		res.Attrs = rg.Floats(total*store.AttrLen(), false)
		lost, err := deg.classify(ctx, store.AttrsBatch(ctx, res.Attrs, ids))
		mem.IDs.Put(ids)
		if err != nil {
			res.Release()
			return nil, err
		}
		deg.charge(lost, roots, 1)
		width = 1
		for h, hop := range res.Hops {
			width *= cfg.Fanouts[h]
			deg.charge(lost, hop, width)
		}
		deg.charge(lost, res.Negatives, cfg.NegativeRate)
	}
	if len(deg.Roots) > 0 {
		pe := deg.PartialError // copied so deg itself stays on the stack
		return res, &pe
	}
	return res, nil
}

// attrSlots counts the attribute vectors a result's canonical fetch order
// covers.
func attrSlots(res *Result) int {
	total := len(res.Roots) + len(res.Negatives)
	for _, h := range res.Hops {
		total += len(h)
	}
	return total
}

// appendAttrOrder appends the canonical attribute-fetch order to dst.
func appendAttrOrder(dst []graph.NodeID, res *Result) []graph.NodeID {
	dst = append(dst, res.Roots...)
	for _, hop := range res.Hops {
		dst = append(dst, hop...)
	}
	return append(dst, res.Negatives...)
}

// AttrOrder returns the canonical attribute-fetch order of a result:
// roots, every hop in order, then negatives — the layout Result.Attrs
// concatenates.
func AttrOrder(res *Result) []graph.NodeID {
	return appendAttrOrder(make([]graph.NodeID, 0, attrSlots(res)), res)
}

// LocalStore adapts a *graph.Graph to the Store interface.
//
// Deprecated for facade callers: building a backend by hand with
// LocalStore{G: g} predates the storage tier. Deployments choose a
// backend through lsdgnn.WithStore (store.InMemory wraps a graph the
// same way; store.Open serves from disk), which also owns the handle's
// lifecycle. LocalStore stays exported as the zero-cost in-memory
// reference backend the parity tests compare every other Store against.
type LocalStore struct{ G *graph.Graph }

// NumNodes implements Store.
func (l LocalStore) NumNodes() int64 { return l.G.NumNodes() }

// AttrLen implements Store.
func (l LocalStore) AttrLen() int { return l.G.AttrLen() }

// NeighborsBatch implements Store.
func (l LocalStore) NeighborsBatch(ctx context.Context, dst [][]graph.NodeID, vs []graph.NodeID) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for i, v := range vs {
		dst[i] = l.G.Neighbors(v)
	}
	return nil
}

// AttrsBatch implements Store.
func (l LocalStore) AttrsBatch(ctx context.Context, dst []float32, vs []graph.NodeID) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	al := l.G.AttrLen()
	for i, v := range vs {
		l.G.Attr(dst[i*al:i*al], v)
	}
	return nil
}
