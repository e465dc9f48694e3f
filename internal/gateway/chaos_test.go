// Chaos acceptance for the multi-tenant gateway. External test package:
// core imports gateway, so driving the full system from here needs
// gateway_test to break the cycle.
package gateway_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lsdgnn/internal/cluster"
	"lsdgnn/internal/core"
	"lsdgnn/internal/gateway"
	"lsdgnn/internal/graph"
	"lsdgnn/internal/sampler"
)

// TestChaosGatewayFairnessUnderFaults is the gateway's headline acceptance
// test: with 5% injected faults and a greedy tenant hammering far past its
// contract, the light tenant must get byte-identical results to an
// unloaded fault-free run, never miss its SLO, and never be shed — all of
// the overload lands on the greedy tenant's rate-limit and shed counters,
// and every batch it offered is on exactly one of them or admitted.
func TestChaosGatewayFairnessUnderFaults(t *testing.T) {
	g := graph.Generate(graph.GenConfig{NumNodes: 2000, AvgDegree: 8, AttrLen: 8, Seed: 11, PowerLaw: true})
	sampling := sampler.Config{Fanouts: []int{4, 3}, NegativeRate: 2, Method: sampler.Streaming, FetchAttrs: true, Seed: 11}
	base := core.Options{
		Graph:    g,
		Servers:  4,
		Replicas: 2,
		Sampling: sampling,
		Seed:     11,
	}

	// Reference run: same graph, same sampling, no faults, no contention.
	ref, err := core.NewSystem(base)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	const lightBatches = 6
	src := ref.BatchSource(8, 21)
	batches := make([][]graph.NodeID, lightBatches)
	want := make([]*sampler.Result, lightBatches)
	for i := range batches {
		batches[i] = src.Next()
		want[i], err = ref.Pipeline.Sample(ctx, batches[i])
		if err != nil {
			t.Fatal(err)
		}
	}

	// Chaos run: 5% injected faults, a greedy tenant at many times any
	// sane rate, and a tight queue so its excess sheds.
	chaos := base
	chaos.Faults = &cluster.FaultSpec{ErrRate: 0.05}
	chaos.Gateway = &gateway.Config{
		Tenants: []gateway.TenantConfig{
			{Name: "light", Key: "light-key", Weight: 4, SLO: 5 * time.Second},
			{Name: "heavy", Key: "heavy-key", Weight: 1, Rate: 100, Burst: 32, SLO: 5 * time.Second},
		},
		QueueDepth:  4,
		MaxInflight: 2,
	}
	sys, err := core.NewSystem(chaos)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	// Greedy tenant: hammer batches from several goroutines, ignoring
	// rejections — the gateway's job is to contain this.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	hsrc := sys.BatchSource(16, 99)
	var hmu sync.Mutex
	var offered atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				hmu.Lock()
				roots := hsrc.Next()
				hmu.Unlock()
				offered.Add(1)
				_, err := sys.SampleAs(ctx, "heavy-key", roots)
				if err == nil {
					continue
				}
				_, limited := gateway.AsRateLimited(err)
				_, shed := gateway.AsShed(err)
				var pe *cluster.PartialError
				var pp *sampler.PartialError
				if !limited && !shed && !errors.As(err, &pe) && !errors.As(err, &pp) {
					t.Errorf("heavy tenant: unexpected error class: %v", err)
					return
				}
			}
		}()
	}

	// Light tenant: the same batches as the reference run, sequentially,
	// while the greedy tenant saturates the path.
	for i, roots := range batches {
		got, err := sys.SampleAs(ctx, "light-key", roots)
		if err != nil {
			var pe *cluster.PartialError
			var pp *sampler.PartialError
			if !errors.As(err, &pe) && !errors.As(err, &pp) {
				t.Fatalf("light batch %d: %v", i, err)
			}
		}
		if got == nil {
			t.Fatalf("light batch %d: no result", i)
		}
		if !reflect.DeepEqual(got.Roots, want[i].Roots) ||
			!reflect.DeepEqual(got.Hops, want[i].Hops) ||
			!reflect.DeepEqual(got.Negatives, want[i].Negatives) ||
			!reflect.DeepEqual(got.Attrs, want[i].Attrs) {
			t.Fatalf("light batch %d diverged from unloaded fault-free run", i)
		}
	}
	close(stop)
	wg.Wait()

	// Fairness ledger: the light tenant was never shed or rate limited and
	// never missed its objective; the heavy tenant absorbed the overload.
	light := sys.Gateway.Tenant("light")
	heavy := sys.Gateway.Tenant("heavy")
	if light.Shed() != 0 || light.RateLimited() != 0 {
		t.Fatalf("light tenant punished: shed=%d ratelimited=%d", light.Shed(), light.RateLimited())
	}
	if snap := sys.Gateway.TenantSLO("light").Snapshot(); snap.Bad != 0 || snap.Breach {
		t.Fatalf("light tenant SLO breached: %+v", snap)
	}
	if heavy.Shed()+heavy.RateLimited() == 0 {
		t.Fatal("greedy tenant was never contained (no sheds, no rate limits)")
	}
	if got := heavy.Admitted() + heavy.RateLimited() + heavy.Shed(); got != offered.Load() {
		t.Fatalf("heavy ledger does not balance: %d admitted + %d ratelimited + %d shed != %d offered",
			heavy.Admitted(), heavy.RateLimited(), heavy.Shed(), offered.Load())
	}
}
