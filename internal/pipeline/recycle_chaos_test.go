package pipeline

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/sampler"
)

// deepCopyResult snapshots a result's contents into plain allocator-owned
// memory, so a later comparison cannot itself read through pooled buffers.
func deepCopyResult(res *sampler.Result) *sampler.Result {
	c := &sampler.Result{
		Roots:  append([]graph.NodeID(nil), res.Roots...),
		Cycles: res.Cycles,
	}
	for _, h := range res.Hops {
		c.Hops = append(c.Hops, append([]graph.NodeID(nil), h...))
	}
	c.Negatives = append([]graph.NodeID(nil), res.Negatives...)
	c.Attrs = append([]float32(nil), res.Attrs...)
	return c
}

func equalResult(got, want *sampler.Result) bool {
	return reflect.DeepEqual(got.Roots, want.Roots) &&
		reflect.DeepEqual(got.Hops, want.Hops) &&
		reflect.DeepEqual(got.Negatives, want.Negatives) &&
		reflect.DeepEqual(got.Attrs, want.Attrs) &&
		got.Cycles == want.Cycles
}

// TestChaosBufferRecycling: a result built on pooled regions must never
// alias memory a Release put back in circulation. Concurrent workers
// sample batches, each retaining its previous result across the next full
// Sample — through pool churn from every other worker's allocations and
// Releases — then verify the retained contents are still byte-identical
// to the snapshot taken when it was fresh. Half the batches run over a
// poisoned store so layout-complete PartialError results (degraded
// subtrees padded with self-loops, attrs zero-filled) take the same trip
// through the recycler. Run under -race by `make chaos`.
func TestChaosBufferRecycling(t *testing.T) {
	g := testGraph(t)
	cfg := testCfg()
	roots := testRoots(32)

	ref, err := sampler.New(sampler.LocalStore{G: g}, cfg).Sample(bg, roots)
	if err != nil {
		t.Fatal(err)
	}
	// The reference is region-backed too; compare against a private copy
	// and recycle it so the workers churn a warmed pool.
	refCopy := deepCopyResult(ref)
	ref.Release()

	const workers, iters = 4, 6
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			ex := New(sampler.LocalStore{G: g}, cfg, Config{Window: 16})
			fs := &faultyStore{
				Store:  sampler.LocalStore{G: g},
				poison: map[graph.NodeID]bool{roots[(5+w)%len(roots)]: true},
			}
			fex := New(fs, cfg, Config{Window: 16})

			// sample runs one batch, clean or degraded, and validates it
			// while fresh.
			sample := func(i int) (*sampler.Result, error) {
				if i%2 == 0 {
					res, err := ex.Sample(bg, roots)
					if err != nil {
						return nil, err
					}
					if !equalResult(res, refCopy) {
						res.Release()
						return nil, fmt.Errorf("iter %d: fresh result diverged from reference", i)
					}
					return res, nil
				}
				res, err := fex.Sample(bg, roots)
				if _, ok := sampler.AsPartial(err); !ok {
					return nil, fmt.Errorf("iter %d: want PartialError, got %v", i, err)
				}
				for h := range res.Hops {
					if len(res.Hops[h]) != len(refCopy.Hops[h]) {
						res.Release()
						return nil, fmt.Errorf("iter %d: degraded result not layout-complete at hop %d", i, h)
					}
				}
				return res, nil
			}

			var retained, retainedSnap *sampler.Result
			for i := 0; i < iters; i++ {
				res, err := sample(i)
				if err != nil {
					errCh <- fmt.Errorf("worker %d %v", w, err)
					return
				}
				snap := deepCopyResult(res)
				// The previously retained result outlived a full Sample on a
				// shared pool. If any of its buffers were recycled, some
				// worker's fresh batch has scribbled on them by now.
				if retained != nil {
					if !equalResult(retained, retainedSnap) {
						errCh <- fmt.Errorf("worker %d: retained result mutated by pool reuse", w)
						return
					}
					retained.Release()
				}
				retained, retainedSnap = res, snap
			}
			if !equalResult(retained, retainedSnap) {
				errCh <- fmt.Errorf("worker %d: final retained result mutated by pool reuse", w)
				return
			}
			retained.Release()
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
