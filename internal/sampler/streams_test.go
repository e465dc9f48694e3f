package sampler

import (
	"reflect"
	"sync"
	"testing"

	"lsdgnn/internal/graph"
)

// chiSquare returns Pearson's X² of counts against equal expected cells.
func chiSquare(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	want := float64(total) / float64(len(counts))
	var x2 float64
	for _, c := range counts {
		d := float64(c) - want
		x2 += d * d / want
	}
	return x2
}

// TestRandIntnChiSquare: Intn is uniform on [0, n). Draws fall into equal
// cells and Pearson's X² must stay under the χ²(cells-1) critical value at
// p = 0.001. n = 2³³+1 = 3²·67·683·20857 needs the full 64-bit product;
// its draws fall into 67 cells of exactly n/67 values each.
func TestRandIntnChiSquare(t *testing.T) {
	for _, c := range []struct {
		n, cells int
		crit     float64 // χ²(cells-1) at p = 0.001
	}{
		{3, 3, 13.816},
		{7, 7, 22.458},
		{1000, 1000, 1142.848},
		{1<<33 + 1, 67, 107.258},
	} {
		rng := NewRand(int64(c.n))
		counts := make([]int, c.cells)
		width := c.n / c.cells
		for i := 0; i < 200*c.cells; i++ {
			v := rng.Intn(c.n)
			if v < 0 || v >= c.n {
				t.Fatalf("Intn(%d) = %d", c.n, v)
			}
			counts[v/width]++
		}
		if x2 := chiSquare(counts); x2 > c.crit {
			t.Errorf("Intn(%d): X² = %.1f over %d cells, critical value %.3f", c.n, x2, c.cells, c.crit)
		}
	}
}

// TestRandFloat64ChiSquare: Float64 is uniform on [0, 1): 20 equal bins,
// X² under χ²(19)'s critical value 43.820 at p = 0.001.
func TestRandFloat64ChiSquare(t *testing.T) {
	rng := NewRand(20)
	counts := make([]int, 20)
	for i := 0; i < 100000; i++ {
		f := rng.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v", f)
		}
		counts[int(f*20)]++
	}
	if x2 := chiSquare(counts); x2 > 43.820 {
		t.Fatalf("Float64: X² = %.1f over 20 bins, critical value 43.820", x2)
	}
}

// inclusionCrit holds χ² critical values at p = 0.001 by degrees of
// freedom, for the (n, k) shapes the inclusion tests use.
var inclusionCrit = map[int]float64{45: 80.077, 49: 85.351, 54: 91.872, 59: 98.324}

// checkInclusion draws k of n candidates 4000 times, each from its own
// derived stream, and tests that every candidate is included with
// probability k/n. Pearson's X² over the n inclusion counts follows a χ²
// law whose shape depends on the method: Streaming picks one of n/k
// candidates per group, so X² ~ χ²(n-k); a uniform k-subset (Reservoir)
// makes the counts negatively correlated, so X²·(n-1)/(n-k) ~ χ²(n-1).
func checkInclusion(t *testing.T, m Method, n, k int, draw func(dst, candidates []graph.NodeID, k int, rng *Rand) []graph.NodeID) {
	t.Helper()
	const trials = 4000
	counts := make([]int, n)
	var got []graph.NodeID
	for tr := 0; tr < trials; tr++ {
		rng := expandRand(int64(n), tr, 0, 0)
		got = draw(got[:0], candidateList(n), k, &rng)
		for _, v := range got {
			counts[v]++
		}
	}
	x2, df := chiSquare(counts), n-k
	if m == Reservoir {
		x2, df = x2*float64(n-1)/float64(n-k), n-1
	}
	if crit := inclusionCrit[df]; x2 > crit {
		t.Fatalf("%v, %d of %d: inclusion X² = %.1f, critical value χ²(%d) = %.3f", m, k, n, x2, df, crit)
	}
}

// TestSamplerConcurrentSample: a Sampler holds no generator state, so
// concurrent Sample calls on one Sampler (run under -race) each return
// exactly what a serial call on the same roots returns.
func TestSamplerConcurrentSample(t *testing.T) {
	g := testGraph(t)
	st := LocalStore{G: g}
	s := New(st, Config{
		Fanouts: []int{4, 3}, NegativeRate: 2, Method: Reservoir, FetchAttrs: true, Seed: 9,
		WeightFn: DegreeWeight(st),
	})
	batches := make([][]graph.NodeID, 8)
	for i := range batches {
		for j := 0; j < 16; j++ {
			batches[i] = append(batches[i], graph.NodeID((i*131+j*17)%2000))
		}
	}
	got := make([]*Result, len(batches))
	var wg sync.WaitGroup
	for i := range batches {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = s.SampleBatch(batches[i])
		}(i)
	}
	wg.Wait()
	for i, roots := range batches {
		want := s.SampleBatch(roots)
		if !reflect.DeepEqual(got[i].Hops, want.Hops) || !reflect.DeepEqual(got[i].Negatives, want.Negatives) ||
			!reflect.DeepEqual(got[i].Attrs, want.Attrs) || got[i].Cycles != want.Cycles {
			t.Fatalf("batch %d: concurrent Sample differs from a serial call", i)
		}
		got[i].Release()
		want.Release()
	}
}
