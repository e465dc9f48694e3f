package sampler

import (
	"context"
	"fmt"
	"math"

	"lsdgnn/internal/graph"
)

// Weighted sampling: the paper notes random sampling "is the base for many
// other sampling methods, such as degree-based sampling" (Section 4.2
// Tech-2). This file extends both algorithms to importance weights while
// preserving their hardware shapes: the reservoir variant is exact
// (Efraimidis–Spirakis keys), the streaming variant keeps the single-pass,
// no-storage group structure by running one weighted single-winner
// selection per group.

// WeightFunc scores a candidate neighbor of parent; larger means more
// likely to be sampled. Weights must be non-negative; a zero-weight
// candidate is only chosen when its whole group has zero weight.
type WeightFunc func(parent, candidate graph.NodeID) float64

// DegreeWeight returns degree-based sampling weights over st: candidates
// with more neighbors are preferred (the classic importance heuristic for
// hub-heavy e-commerce graphs). Degrees come through the batch fetch
// path; a failed lookup falls back to the uniform weight 1.
func DegreeWeight(st Store) WeightFunc {
	return func(_, candidate graph.NodeID) float64 {
		var lists [1][]graph.NodeID
		if err := st.NeighborsBatch(context.Background(), lists[:], []graph.NodeID{candidate}); err != nil {
			return 1
		}
		return float64(len(lists[0]) + 1)
	}
}

// SampleNeighborsWeighted draws up to k of candidates with probability
// proportional to weights, using method m's hardware shape and drawing from
// rng. weights must be parallel to candidates. Cycle accounting matches the
// unweighted variants: Steps(len(candidates), k, m).
func SampleNeighborsWeighted(dst []graph.NodeID, candidates []graph.NodeID, weights []float64, k int, m Method, rng *Rand) ([]graph.NodeID, int) {
	n := len(candidates)
	if len(weights) != n {
		panic(fmt.Sprintf("sampler: %d weights for %d candidates", len(weights), n))
	}
	cycles := Steps(n, k, m)
	if k <= 0 || n == 0 {
		return dst, cycles
	}
	if n <= k {
		return append(dst, candidates...), cycles
	}
	switch m {
	case Reservoir:
		// Efraimidis–Spirakis: key_i = u_i^(1/w_i); the k largest keys are
		// an exact weighted sample without replacement. Selection uses a
		// running top-k scan (k is small).
		type kv struct {
			key float64
			idx int
		}
		top := make([]kv, 0, k)
		worst := -1 // index in top of the smallest key
		for i := 0; i < n; i++ {
			w := weights[i]
			var key float64
			if w > 0 {
				key = math.Pow(rng.Float64(), 1/w)
			}
			if len(top) < k {
				top = append(top, kv{key, i})
				if worst < 0 || key < top[worst].key {
					worst = len(top) - 1
				}
				continue
			}
			if key <= top[worst].key {
				continue
			}
			top[worst] = kv{key, i}
			worst = 0
			for j := 1; j < len(top); j++ {
				if top[j].key < top[worst].key {
					worst = j
				}
			}
		}
		for _, t := range top {
			dst = append(dst, candidates[t.idx])
		}
		return dst, cycles
	case Streaming:
		// K groups in arrival order; within each group, a single-pass
		// weighted winner: candidate i replaces the current winner with
		// probability w_i / W where W is the running group weight.
		q, r := n/k, n%k
		start := 0
		for g := 0; g < k; g++ {
			size := q
			if g < r {
				size++
			}
			winner := start
			var running float64
			for i := start; i < start+size; i++ {
				w := weights[i]
				if w <= 0 {
					continue
				}
				running += w
				if rng.Float64() < w/running {
					winner = i
				}
			}
			if running == 0 {
				// All-zero group: fall back to uniform within the group.
				winner = start + rng.Intn(size)
			}
			dst = append(dst, candidates[winner])
			start += size
		}
		return dst, cycles
	default:
		panic(fmt.Sprintf("sampler: unknown method %v", m))
	}
}

// ExpandNeighbors is KHop's expansion step: it draws up to fanout of nbrs
// with method m from rng, applying wf when set. The returned slice grows
// dst by at most fanout (KHop pads with the parent to exact fanout).
func ExpandNeighbors(dst []graph.NodeID, parent graph.NodeID, nbrs []graph.NodeID, fanout int, m Method, wf WeightFunc, rng *Rand) ([]graph.NodeID, int) {
	if wf == nil {
		return SampleNeighbors(dst, nbrs, fanout, m, rng)
	}
	weights := make([]float64, len(nbrs))
	for i, u := range nbrs {
		w := wf(parent, u)
		if w < 0 {
			w = 0
		}
		weights[i] = w
	}
	return SampleNeighborsWeighted(dst, nbrs, weights, fanout, m, rng)
}
