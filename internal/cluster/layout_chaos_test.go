package cluster

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lsdgnn/internal/sampler"
)

// TestChaosRebalanceUnderTraffic is the elastic-layout acceptance test:
// while concurrent workers sample under a 5% injected per-call fault rate,
// a controller drains one replica, admits a spare in its place, and
// migrates the hot partition to a fresh endpoint. Every batch — before,
// during, and after the four epoch swaps — must succeed and be
// byte-identical to a static fault-free run.
func TestChaosRebalanceUnderTraffic(t *testing.T) {
	g := testGraph(t)
	const partitions, batches, batchSize, workers = 2, 8, 16, 4
	want := referenceResults(t, g, partitions, batches, batchSize)

	// Endpoints 0..3 form UniformLayout(2, 2); endpoints 4 (partition 0)
	// and 5 (partition 1) sit on the transport as spares outside the
	// initial layout.
	part := HashPartitioner{N: partitions}
	servers := []*Server{
		NewServer(g, part, 0), NewServer(g, part, 1),
		NewServer(g, part, 0), NewServer(g, part, 1),
		NewServer(g, part, 0), NewServer(g, part, 1),
	}
	ft := NewFaultyTransport(DirectTransport{Servers: servers}, 42)
	client, err := NewClientContext(bg, ft, part, -1,
		WithResilience(ResilienceConfig{
			// 6 passes over two serving replicas absorb a 5% per-call rate;
			// the high breaker threshold keeps chaos noise from opening
			// circuits that layout swaps would then have to clean up anyway.
			Retry:   RetryPolicy{MaxAttempts: 6, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond, Jitter: 0.5},
			Breaker: BreakerConfig{Threshold: 50, OpenFor: 10 * time.Millisecond},
			Seed:    7,
		}),
		WithLayout(UniformLayout(partitions, 2)))
	if err != nil {
		t.Fatal(err)
	}

	// Heat partition 1 so the detector, not the test, picks the migration
	// source.
	hotIDs := ownedSample(part, 1, g.NumNodes(), 4)
	for i := 0; i < 32; i++ {
		if _, err := getNeighbors(client, hotIDs); err != nil {
			t.Fatal(err)
		}
	}
	hotPart, hot := client.HotShard(1.2)
	if !hot || hotPart != 1 {
		t.Fatalf("HotShard = %d, %v — partition 1 took all the warmup traffic", hotPart, hot)
	}

	ft.SetFaults(FaultSpec{ErrRate: 0.05})

	// The controller reshapes the layout while workers hammer it: drain
	// replica 2 out of partition 0, admit spare 4 in its place, then
	// migrate the hot partition off endpoint 1 onto spare 5.
	ctrlDone := make(chan struct{})
	ctrlErr := make(chan error, 1)
	go func() {
		defer close(ctrlDone)
		ctx, cancel := context.WithTimeout(bg, 30*time.Second)
		defer cancel()
		if err := client.DrainReplica(ctx, 0, 2); err != nil {
			ctrlErr <- fmt.Errorf("drain replica 2: %w", err)
			return
		}
		// The admission probe runs over the faulty transport; a failed
		// probe swaps nothing, so retrying the whole admission is safe.
		var err error
		for a := 0; a < 20; a++ {
			if err = client.AddReplica(ctx, 0, 4); err == nil {
				break
			}
		}
		if err != nil {
			ctrlErr <- fmt.Errorf("add replica 4: %w", err)
			return
		}
		for a := 0; a < 20; a++ {
			if err = client.MigratePartition(ctx, hotPart, 1, 5); err == nil {
				break
			}
		}
		if err != nil {
			ctrlErr <- fmt.Errorf("migrate partition %d: %w", hotPart, err)
		}
	}()

	// Workers cycle through the batch set until every batch has run at
	// least once AND the controller has finished — traffic spans all four
	// layout swaps.
	var idx atomic.Int64
	errc := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := idx.Add(1) - 1
				b := int(i) % batches
				res, err := sampler.KHop(bg, client, chaosSampling, chaosRoots(g, b, batchSize))
				if err != nil {
					errc <- fmt.Errorf("batch %d failed mid-reshape: %w", b, err)
					return
				}
				if !reflect.DeepEqual(res, want[b]) {
					errc <- fmt.Errorf("batch %d diverged from the static-layout reference", b)
					return
				}
				if int(i) >= batches-1 {
					select {
					case <-ctrlDone:
						return
					default:
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	select {
	case err := <-ctrlErr:
		t.Fatal(err)
	default:
	}

	// Final shape: partition 0 on {0, 4}, the hot partition on {3, 5},
	// endpoints 1 and 2 fully departed.
	l := client.Layout()
	if got := l.Routable(0); !reflect.DeepEqual(got, []int{0, 4}) {
		t.Fatalf("Routable(0) = %v, want [0 4]", got)
	}
	if got := l.Routable(1); !reflect.DeepEqual(got, []int{3, 5}) {
		t.Fatalf("Routable(1) = %v, want [3 5]", got)
	}
	if l.Contains(1) || l.Contains(2) {
		t.Fatal("departed endpoints still in the layout")
	}
	// Drain = 1 swap, add = 1, migrate = 2, and a failed admission probe
	// swaps nothing: epoch 1 → exactly 5, however many probes chaos fails.
	if l.Epoch != 5 {
		t.Fatalf("epoch = %d, want 5", l.Epoch)
	}
	snap := client.Lay.Snapshot()
	if snap.Swaps != 4 || snap.ReplicaJoins != 1 || snap.ReplicaDrains != 1 || snap.Migrations != 1 {
		t.Fatalf("layout stats = %+v", snap)
	}

	// Breakers for departed endpoints must not survive the epoch bumps —
	// a wedged breaker against endpoint 1 or 2 would leak its half-open
	// probe slot forever.
	client.res.mu.Lock()
	_, b1 := client.res.breakers[1]
	_, b2 := client.res.breakers[2]
	client.res.mu.Unlock()
	if b1 || b2 {
		t.Fatal("departed endpoints' breakers survived the layout swaps")
	}

	if _, injected := ft.Counts(); injected == 0 {
		t.Fatal("chaos injected no faults — the test proved nothing")
	}
}
