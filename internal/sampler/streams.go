package sampler

import (
	"math/rand"
	"sync"
)

// Deterministic per-root RNG streams. The paper's AxE load unit (§4.2
// Tech-3, Fig. 8) retires memory responses out of order; a software
// reproduction of that pipeline must not let completion order change the
// sampled output, or every run would be irreproducible. The fix is to
// stop sharing one sequential RNG across the batch: every expansion site
// gets its own stream derived purely from (batch seed, root index, hop,
// position within the root's frontier), and every root's negative draws
// get a stream of their own. Any execution order — synchronous, hop-
// overlapped, fully out of order, or the AxE event simulation — then
// produces byte-identical results. Config.RootStreams opts a sampler into
// this scheme.
//
// Materializing a stream used to mean rand.New(rand.NewSource(child)) per
// expansion — and seeding math/rand's lagged-Fibonacci source allocates a
// ~5KB feedback table, which at one stream per expansion was the hot
// path's single largest allocation. Stream keeps one table per worker and
// repositions it with an in-place reseed (table regeneration, no
// allocation), so the draws stay byte-identical to the historical
// per-call construction while the steady-state allocation rate drops to
// zero.

// mix64 is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// mixing function (Steele et al., "Fast Splittable Pseudorandom Number
// Generators").
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// StreamSeed derives a child seed from a batch seed and a tag path by
// folding each tag through splitmix64. Distinct tag paths give
// independent streams; the same path always gives the same stream.
func StreamSeed(seed int64, tags ...uint64) int64 {
	z := mix64(uint64(seed))
	for _, t := range tags {
		z = mix64(z ^ mix64(t))
	}
	return int64(z)
}

// Stream tags namespace the derivation so e.g. root 3's negative stream
// can never collide with an expansion stream.
const (
	tagExpand    = 0x657870 // "exp"
	tagNegatives = 0x6e6567 // "neg"
)

// Stream is a reusable derived-stream cursor: one RNG (and one
// lagged-Fibonacci state table) that can be repositioned onto any
// (seed, root, hop, position) stream between draws. Repositioning is an
// in-place Seed, so a cursor returns exactly the values a freshly
// constructed rand.New(rand.NewSource(child)) would. Execution paths hold
// one Stream per worker (a KHop call one from the pool, an AxE core one
// per core) instead of materializing a fresh RNG per expansion. Not safe
// for concurrent use.
type Stream struct {
	r *rand.Rand
}

// NewStream returns an unpositioned stream cursor; position it with Node
// or Negatives before drawing.
func NewStream() *Stream {
	return &Stream{r: rand.New(rand.NewSource(0))}
}

// Node repositions the cursor onto the expansion stream for the node at
// (root index, hop, position) under the batch seed and returns the RNG,
// positioned exactly as NodeRNG would return it.
func (s *Stream) Node(seed int64, root, hop, pos int) *rand.Rand {
	s.r.Seed(StreamSeed(seed, tagExpand, uint64(root), uint64(hop), uint64(pos)))
	return s.r
}

// Negatives repositions the cursor onto the root's negative-sampling
// stream under the batch seed.
func (s *Stream) Negatives(seed int64, root int) *rand.Rand {
	s.r.Seed(StreamSeed(seed, tagNegatives, uint64(root)))
	return s.r
}

// streamPool recycles Stream cursors across batches: KHop calls run
// concurrently and have no natural place to park one.
var streamPool = sync.Pool{New: func() any { return NewStream() }}

// GetStream checks a stream cursor out of the shared pool.
func GetStream() *Stream { return streamPool.Get().(*Stream) }

// PutStream returns a cursor to the pool.
func PutStream(s *Stream) { streamPool.Put(s) }

// NodeRNG returns the dedicated stream for expanding the node at (root
// index, hop, position within the root's hop frontier) under the given
// batch seed. Every call returns an identical, freshly-positioned stream.
// Hot paths should hold a Stream and reposition it instead.
func NodeRNG(seed int64, root, hop, pos int) *rand.Rand {
	return NewStream().Node(seed, root, hop, pos)
}

// NegativesRNG returns the root's negative-sampling stream under the
// given batch seed.
func NegativesRNG(seed int64, root int) *rand.Rand {
	return NewStream().Negatives(seed, root)
}
