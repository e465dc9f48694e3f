package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/sampler"
)

func dispatchSystem(t *testing.T, servers int) *System {
	t.Helper()
	g := graph.Generate(graph.GenConfig{NumNodes: 2000, AvgDegree: 8, AttrLen: 8, Seed: 3, PowerLaw: true})
	sys, err := NewSystem(Options{Graph: g, Servers: servers, Seed: 3,
		Sampling: sampler.Config{Fanouts: []int{4, 3}, NegativeRate: 2, Method: sampler.Streaming, FetchAttrs: true, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// refSample is the reference sampler's batch for roots under sys's config:
// what the dispatcher's engines are handed to time.
func refSample(sys *System, roots []graph.NodeID) *sampler.Result {
	return sampler.New(sampler.LocalStore{G: sys.Graph}, sys.Sampling).SampleBatch(roots)
}

func TestDispatcherSpreadsAcrossEngines(t *testing.T) {
	sys := dispatchSystem(t, 4)
	src := sys.BatchSource(8, 1)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		roots := src.Next()
		wg.Add(1)
		go func(i int, roots []graph.NodeID) {
			defer wg.Done()
			_, _, errs[i] = sys.Sample(context.Background(), roots)
		}(i, roots)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	counts := sys.Dispatcher.Counts()
	busy, total := 0, int64(0)
	for _, c := range counts {
		if c > 0 {
			busy++
		}
		total += c
	}
	if total != 8 {
		t.Fatalf("dispatched %d of 8 batches: %v", total, counts)
	}
	if busy < 2 {
		t.Fatalf("work not distributed: only %d engine(s) used, counts %v", busy, counts)
	}
}

func TestDispatcherSequentialRoundRobins(t *testing.T) {
	sys := dispatchSystem(t, 3)
	src := sys.BatchSource(4, 2)
	for i := 0; i < 6; i++ {
		if _, _, err := sys.Sample(context.Background(), src.Next()); err != nil {
			t.Fatal(err)
		}
	}
	// With no concurrency every engine is idle at pick time, so the
	// round-robin tie-break must hand each engine exactly two batches.
	for i, c := range sys.Dispatcher.Counts() {
		if c != 2 {
			t.Fatalf("engine %d got %d batches, want 2: %v", i, c, sys.Dispatcher.Counts())
		}
	}
}

// inflight sums the batches d is replaying right now.
func inflight(d *Dispatcher) (n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, v := range d.inflight {
		n += v
	}
	return n
}

// TestDispatcherReleasesBeforeReturn: a Submit that has returned no longer
// counts against its engine, so the next sequential pick sees every engine
// idle. Spare Ps let the woken caller run before a late release would.
func TestDispatcherReleasesBeforeReturn(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	sys := dispatchSystem(t, 3)
	src := sys.BatchSource(4, 2)
	for i := 0; i < 20; i++ {
		if _, _, err := sys.Sample(context.Background(), src.Next()); err != nil {
			t.Fatal(err)
		}
		if n := inflight(sys.Dispatcher); n != 0 {
			t.Fatalf("batch %d returned with %d batch(es) still in flight", i, n)
		}
	}
}

// TestDispatcherMatchesLegacyResult: whichever engine the dispatcher picks,
// the batch is the reference sampler's over the local graph.
func TestDispatcherMatchesLegacyResult(t *testing.T) {
	sys := dispatchSystem(t, 2)
	roots := sys.BatchSource(6, 7).Next()
	ref, err := sampler.New(sampler.LocalStore{G: sys.Graph}, sys.Sampling).Sample(context.Background(), roots)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		via, _, err := sys.Sample(context.Background(), roots)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(via.Hops, ref.Hops) || !reflect.DeepEqual(via.Negatives, ref.Negatives) ||
			!reflect.DeepEqual(via.Attrs, ref.Attrs) || via.Cycles != ref.Cycles {
			t.Fatalf("batch %d through the dispatcher differs from the reference sampler", i)
		}
	}
}

func TestDispatcherCanceledContext(t *testing.T) {
	sys := dispatchSystem(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := sys.Sample(ctx, sys.BatchSource(4, 1).Next()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
}

func TestDispatcherQueueRespectsDeadline(t *testing.T) {
	g := graph.Generate(graph.GenConfig{NumNodes: 500, AvgDegree: 6, AttrLen: 4, Seed: 1, PowerLaw: true})
	sys, err := NewSystem(Options{Graph: g, Servers: 1, Seed: 1,
		Sampling: sampler.Config{Fanouts: []int{8, 8}, NegativeRate: 2, Method: sampler.Streaming, FetchAttrs: true, Seed: 1},
		Dispatch: DispatcherConfig{Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Saturate the single worker slot so a second batch has to queue.
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		sys.Dispatcher.slots <- struct{}{}
		close(started)
		<-release
		<-sys.Dispatcher.slots
	}()
	<-started
	defer close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, err := sys.Sample(ctx, sys.BatchSource(4, 1).Next()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued batch err = %v, want DeadlineExceeded", err)
	}
	if sys.Dispatcher.lat.Count() != 0 {
		t.Fatal("timed-out batch counted as success")
	}
}

func TestDispatcherValidation(t *testing.T) {
	if _, err := NewDispatcher(nil, DispatcherConfig{}); err == nil {
		t.Fatal("empty engine set accepted")
	}
	sys := dispatchSystem(t, 1)
	if _, err := NewDispatcher(sys.Engines, DispatcherConfig{Workers: -1}); err == nil {
		t.Fatal("negative workers accepted")
	}
}

func TestDispatcherStatsSnapshot(t *testing.T) {
	sys := dispatchSystem(t, 2)
	if _, _, err := sys.Sample(context.Background(), sys.BatchSource(4, 1).Next()); err != nil {
		t.Fatal(err)
	}
	snap := sys.Dispatcher.StatsSnapshot()
	if snap.Layer != "core.dispatcher" {
		t.Fatalf("layer = %q", snap.Layer)
	}
	if v, ok := snap.Get("batches"); !ok || v != 1 {
		t.Fatalf("batches = %v", v)
	}
	e0, _ := snap.Get("engine_0_batches")
	e1, _ := snap.Get("engine_1_batches")
	if e0+e1 != 1 {
		t.Fatalf("per-engine counts %v + %v", e0, e1)
	}
}

func TestSystemStatsRegistry(t *testing.T) {
	sys := dispatchSystem(t, 2)
	ctx := context.Background()
	roots := sys.BatchSource(6, 3).Next()
	if _, err := sys.Pipeline.Sample(ctx, roots); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.Sample(ctx, roots); err != nil {
		t.Fatal(err)
	}
	layers := map[string]bool{}
	for _, snap := range sys.StatsRegistry().Collect() {
		layers[snap.Layer] = true
	}
	for _, want := range []string{"cluster.traffic", "pipeline", "core.dispatcher", "trace.access"} {
		if !layers[want] {
			t.Fatalf("layer %q missing from registry: %v", want, layers)
		}
	}
}

func TestSampleBackgroundContext(t *testing.T) {
	sys := dispatchSystem(t, 2)
	roots := sys.BatchSource(4, 5).Next()
	res, st, err := sys.Sample(context.Background(), roots)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || st.SimTime <= 0 {
		t.Fatal("accelerated sampling broken")
	}
}
