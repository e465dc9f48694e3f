package sampler

import (
	"testing"

	"lsdgnn/internal/graph"
)

func TestWeightedSmallN(t *testing.T) {
	rng := NewRand(1)
	for _, m := range []Method{Reservoir, Streaming} {
		got, _ := SampleNeighborsWeighted(nil, candidateList(3), []float64{1, 2, 3}, 10, m, &rng)
		if len(got) != 3 {
			t.Fatalf("%v: n<k should return all", m)
		}
		got, _ = SampleNeighborsWeighted(nil, nil, nil, 5, m, &rng)
		if len(got) != 0 {
			t.Fatalf("%v: empty candidates returned %v", m, got)
		}
	}
}

func TestWeightedMismatchedWeightsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched weights did not panic")
		}
	}()
	SampleNeighborsWeighted(nil, candidateList(3), []float64{1}, 2, Streaming, &Rand{})
}

func TestWeightedCycleCounts(t *testing.T) {
	rng := NewRand(2)
	w := make([]float64, 1000)
	for i := range w {
		w[i] = 1
	}
	_, rc := SampleNeighborsWeighted(nil, candidateList(1000), w, 10, Reservoir, &rng)
	_, sc := SampleNeighborsWeighted(nil, candidateList(1000), w, 10, Streaming, &rng)
	if rc != 1010 || sc != 1000 {
		t.Fatalf("cycles = %d/%d, want 1010/1000", rc, sc)
	}
}

func TestWeightedBias(t *testing.T) {
	// Candidate 0 has 10× the weight of the others: it must be sampled far
	// more often than 1/n under both methods.
	const n, k, trials = 40, 4, 3000
	for _, m := range []Method{Reservoir, Streaming} {
		rng := NewRand(3)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = 1
		}
		weights[0] = 10
		hits := 0
		for tr := 0; tr < trials; tr++ {
			got, _ := SampleNeighborsWeighted(nil, candidateList(n), weights, k, m, &rng)
			for _, v := range got {
				if v == 0 {
					hits++
				}
			}
		}
		// Uniform inclusion would be trials·k/n = 300; 10× weight should
		// push well past 2× that.
		if hits < 700 {
			t.Fatalf("%v: heavy candidate sampled %d times, want ≫300", m, hits)
		}
	}
}

func TestWeightedZeroWeightExcluded(t *testing.T) {
	// Zero-weight candidates are never chosen while any positive weight
	// exists in their group.
	const n, k = 20, 4
	for _, m := range []Method{Reservoir, Streaming} {
		rng := NewRand(4)
		weights := make([]float64, n)
		for i := range weights {
			if i%2 == 0 {
				weights[i] = 1
			}
		}
		for tr := 0; tr < 200; tr++ {
			got, _ := SampleNeighborsWeighted(nil, candidateList(n), weights, k, m, &rng)
			for _, v := range got {
				if int(v)%2 == 1 {
					t.Fatalf("%v: zero-weight candidate %d sampled", m, v)
				}
			}
		}
	}
}

func TestWeightedAllZeroFallsBack(t *testing.T) {
	rng := NewRand(5)
	weights := make([]float64, 20)
	got, _ := SampleNeighborsWeighted(nil, candidateList(20), weights, 4, Streaming, &rng)
	if len(got) != 4 {
		t.Fatalf("all-zero weights returned %d samples", len(got))
	}
}

func TestWeightedUniformMatchesUnweighted(t *testing.T) {
	// With equal weights, both shapes include every candidate with
	// probability k/n, exactly as the unweighted samplers do.
	const n = 50
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 3.5
	}
	for _, m := range []Method{Reservoir, Streaming} {
		checkInclusion(t, m, n, 5, func(dst, candidates []graph.NodeID, k int, rng *Rand) []graph.NodeID {
			dst, _ = SampleNeighborsWeighted(dst, candidates, weights, k, m, rng)
			return dst
		})
	}
}

func TestDegreeWeightedKHop(t *testing.T) {
	g := graph.Generate(graph.GenConfig{NumNodes: 2000, AvgDegree: 10, AttrLen: 4, Seed: 7, PowerLaw: true})
	store := LocalStore{G: g}
	s := New(store, Config{
		Fanouts: []int{5, 5}, Method: Streaming, Seed: 7,
		WeightFn: DegreeWeight(store),
	})
	roots := []graph.NodeID{100, 200, 300, 400}
	res := s.SampleBatch(roots)
	if len(res.Hops[1]) != 4*25 {
		t.Fatalf("weighted k-hop shapes broken: %d", len(res.Hops[1]))
	}
	// Degree-weighted sampling should pull in higher-degree nodes than
	// uniform sampling on a power-law graph.
	uni := New(store, Config{Fanouts: []int{5, 5}, Method: Streaming, Seed: 7}).SampleBatch(roots)
	avgDeg := func(nodes []graph.NodeID) float64 {
		var sum float64
		for _, v := range nodes {
			sum += float64(g.Degree(v))
		}
		return sum / float64(len(nodes))
	}
	if avgDeg(res.Hops[1]) <= avgDeg(uni.Hops[1]) {
		t.Fatalf("degree weighting did not bias toward hubs: %.2f vs %.2f",
			avgDeg(res.Hops[1]), avgDeg(uni.Hops[1]))
	}
}

func TestWeightedNegativeWeightsClamped(t *testing.T) {
	g := graph.Generate(graph.GenConfig{NumNodes: 200, AvgDegree: 6, AttrLen: 2, Seed: 8})
	store := LocalStore{G: g}
	s := New(store, Config{
		Fanouts: []int{3}, Method: Reservoir, Seed: 8,
		WeightFn: func(_, c graph.NodeID) float64 { return -1 }, // clamped to 0
	})
	res := s.SampleBatch([]graph.NodeID{1, 2})
	if len(res.Hops[0]) != 6 {
		t.Fatal("negative weights broke sampling")
	}
}
