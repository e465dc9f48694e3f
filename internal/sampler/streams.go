package sampler

import "math/bits"

// Deterministic per-draw-site RNG streams. The paper's sampler is a
// pipeline stage (§4.2 Tech-2/Tech-3): each request draws from a value
// derived from the request itself, and no generator state survives between
// requests, so the AxE load unit may retire memory responses in any order
// (Fig. 8) without changing what gets sampled. The software paths do the
// same. Every expansion site — (batch seed, root index, hop, position
// within the root's hop frontier) — and every root's negative draws get
// their own stream, keyed by folding that path through splitmix64
// (StreamSeed). A stream is a Rand: SplitMix64 whose whole state is one
// uint64, so deriving one costs a handful of multiplies and positions
// nothing shared. Synchronous, windowed, concurrent and remote execution
// therefore all produce byte-identical results, and the AxE engine model
// simply replays timing over KHop's output.

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

// Rand is a SplitMix64 generator: draw i of the stream keyed k is
// mix64(k + i·γ) with γ the golden-ratio increment. The zero value is the
// stream keyed 0. Not safe for concurrent use; it is a value, so copy one
// per goroutine.
type Rand struct{ s uint64 }

// NewRand returns the stream keyed by key (typically a StreamSeed).
func NewRand(key int64) Rand { return Rand{uint64(key)} }

// expandRand is the stream that expands the node at position pos of root
// index root's hop-hop frontier under the batch seed.
func expandRand(seed int64, root, hop, pos int) Rand {
	return NewRand(StreamSeed(seed, tagExpand, uint64(root), uint64(hop), uint64(pos)))
}

// negativesRand is the stream of root index root's negative draws.
func negativesRand(seed int64, root int) Rand {
	return NewRand(StreamSeed(seed, tagNegatives, uint64(root)))
}

func (r *Rand) next() uint64 {
	z := mix64(r.s)
	r.s += 0x9e3779b97f4a7c15
	return z
}

// uint64n draws uniformly from [0, n) by Lemire's multiply-shift with the
// exact rejection step, so no residue is favoured. n must be positive.
func (r *Rand) uint64n(n uint64) uint64 {
	hi, lo := bits.Mul64(r.next(), n)
	if lo < n {
		thresh := -n % n // 2^64 mod n
		for lo < thresh {
			hi, lo = bits.Mul64(r.next(), n)
		}
	}
	return hi
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sampler: Rand.Intn of non-positive n")
	}
	return int(r.uint64n(uint64(n)))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sampler: Rand.Int63n of non-positive n")
	}
	return int64(r.uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1) from the top 53 bits of a
// draw.
func (r *Rand) Float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}
