package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"sync"
	"time"

	"lsdgnn/internal/cluster"
	"lsdgnn/internal/core"
	"lsdgnn/internal/cost"
	"lsdgnn/internal/faas"
	"lsdgnn/internal/gateway"
	"lsdgnn/internal/graph"
	"lsdgnn/internal/obs"
	"lsdgnn/internal/perfmodel"
	"lsdgnn/internal/pipeline"
	"lsdgnn/internal/sampler"
	"lsdgnn/internal/stats"
	"lsdgnn/internal/store"
	"lsdgnn/internal/workload"
)

func init() {
	register("serving", "multi-engine serving pipeline: dispatcher placement, resilience under injected faults, unified stats", serving)
}

// serving exercises the context-aware serving path end to end: concurrent
// batches fan out through the dispatcher across every AxE engine while the
// software path runs alongside over a replicated, fault-injected storage
// tier — retries, breakers, and replica failover absorb a 5% injected
// failure rate — then the unified stats registry reports each layer of the
// stack in one view.
func serving(w io.Writer, opts Options) error {
	ds, err := workload.DatasetByName("ss")
	if err != nil {
		return err
	}
	batches, batchSize, clients := 32, 128, 8
	if opts.Quick {
		batches, batchSize, clients = 8, 32, 4
	}
	sys, err := core.NewSystem(core.Options{
		Dataset: ds, Servers: 4, Seed: opts.Seed,
		Sampling: sampler.Config{
			Fanouts: []int{10, 10}, NegativeRate: 10,
			Method: sampler.Streaming, FetchAttrs: true, Seed: opts.Seed,
		},
		// Storage tier of a shared FaaS service: 2 replicas per partition,
		// 5% of calls fail in flight, and the client-side resilience layer
		// (default retries + breakers, failover across replicas) keeps every
		// batch whole.
		Replicas: 2,
		Faults:   &cluster.FaultSpec{ErrRate: 0.05},
	})
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	src := sys.BatchSource(batchSize, opts.Seed)
	var mu sync.Mutex
	work := make([][]graph.NodeID, batches)
	for i := range work {
		work[i] = append([]graph.NodeID(nil), src.Next()...)
	}

	start := time.Now()
	var wg sync.WaitGroup
	next := 0
	var firstErr error
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(work) || firstErr != nil {
					mu.Unlock()
					return
				}
				batch := next
				roots := work[batch]
				next++
				mu.Unlock()
				if _, _, err := sys.Sample(ctx, roots); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				// Every fourth batch also runs the software baseline so the
				// cluster layers show up in the unified report.
				if batch%4 == 0 {
					if _, err := sys.SampleSoftware(ctx, roots); err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	wall := time.Since(start)

	fmt.Fprintf(w, "%d clients, %d accelerated batches of %d roots over %d engines in %v wall time\n",
		clients, batches, batchSize, len(sys.Engines), wall.Round(time.Millisecond))
	counts := sys.Dispatcher.Counts()
	for i, c := range counts {
		fmt.Fprintf(w, "  engine %d: %d batches\n", i, c)
	}
	calls, injected := sys.Faults.Counts()
	rs := sys.Client.Res.Snapshot()
	fmt.Fprintf(w, "chaos: %d of %d storage calls failed by injection; absorbed by %d retries + %d failovers (0 batches lost)\n",
		injected, calls, rs.Retries, rs.Failovers)

	// End-to-end percentiles and the per-hop breakdown (§7.2 / Figure 15
	// methodology): where does a batch's latency actually go — queueing,
	// engine, RPC machinery, wire, or the server's handler?
	fmt.Fprintln(w, "\nend-to-end latency:")
	writeQuantiles(w, "accelerated (dispatch+engine)", sys.Dispatcher.Latency().Hist())
	writeQuantiles(w, "software (cluster batch)", sys.Client.Batches.Hist())
	fmt.Fprintln(w, "\nper-hop breakdown:")
	hops := []string{
		obs.HopDispatchWait, obs.HopEngine, obs.HopBatch,
		obs.HopRPC, obs.HopWire, obs.HopServer,
	}
	for _, hop := range hops {
		h := sys.Obs.Hop(hop)
		if h.Count == 0 {
			continue
		}
		writeQuantiles(w, hop, h)
	}
	// The same breakdown over only the last 10 seconds — the rolling
	// window a control loop would act on. For this burst the two agree;
	// under a live spike the window moves while the cumulative barely
	// does, which is the whole point.
	fmt.Fprintln(w, "\nwindowed per-hop breakdown (last 10s):")
	for _, hop := range hops {
		h := sys.Obs.HopWindow(hop)
		if h.Count == 0 {
			continue
		}
		writeQuantiles(w, hop, h)
	}
	fmt.Fprintln(w, "\nSLO burn under the 5% fault mix (multi-window burn rates):")
	for _, s := range sys.SLOs.Snapshots() {
		status := "within budget"
		if s.Breach {
			status = "BREACH"
		}
		fmt.Fprintf(w, "  %-16s target=%.4g good=%-6d bad=%-4d burn_fast=%-8.3g burn_slow=%-8.3g %s\n",
			s.Name, s.Target, s.Good, s.Bad, s.BurnFast, s.BurnSlow, status)
	}
	if id, spans, ok := sys.Obs.LastTrace(); ok && len(spans) > 0 {
		fmt.Fprintf(w, "\ntrace %016x (one sampled batch, hop by hop):\n", uint64(id))
		base := spans[0].Start
		for _, s := range spans {
			status := ""
			if s.Err {
				status = "  FAILED"
			}
			line := fmt.Sprintf("  +%-10s %-14s %-12s %s%s",
				s.Start.Sub(base).Round(time.Microsecond), s.Hop,
				s.Dur.Round(time.Microsecond), s.Note, status)
			fmt.Fprintln(w, strings.TrimRight(line, " "))
		}
	}
	fmt.Fprintln(w, "\nunified stats (internal/stats registry):")
	if _, err := sys.StatsRegistry().WriteTo(w); err != nil {
		return err
	}
	if err := elasticRebalance(w, opts); err != nil {
		return err
	}
	if err := storeComparison(w, opts); err != nil {
		return err
	}
	return multiTenantFairness(w, opts)
}

// storeComparison serves the same batches twice — once from partition
// servers holding the graph in RAM, once from servers answering off a
// persistent mmap CSR segment through a page cache at least 4x smaller
// than the segment (§2 / Fig 2a: a 10–100 TB production graph cannot be
// RAM-resident, so the storage tier must page) — and requires the two
// runs byte-identical. Reported: the wall-time cost of paging, the cache
// hit rate the sampler's locality earns, and the residency ceiling the
// admission controller actually held.
func storeComparison(w io.Writer, opts Options) error {
	const budget = 3 << 18 // 768 KiB against a ~4.1 MB segment
	batches, batchSize := 12, 96
	if opts.Quick {
		batches, batchSize = 4, 48
	}
	// Materialized attributes so the segment carries the full attr table —
	// the component that makes real graphs outgrow RAM.
	g := graph.Generate(graph.GenConfig{
		NumNodes: 12_000, AvgDegree: 10, AttrLen: 64, Seed: opts.Seed,
		PowerLaw: true, Materialize: true,
	})
	scfg := sampler.Config{
		Fanouts: []int{10, 10}, NegativeRate: 10,
		Method: sampler.Streaming, FetchAttrs: true, Seed: opts.Seed,
	}
	memSys, err := core.NewSystem(core.Options{Graph: g, Servers: 4, Seed: opts.Seed, Sampling: scfg})
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "lsdgnn-store-exp")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	diskSys, err := core.NewSystem(core.Options{
		Graph: g, Servers: 4, Seed: opts.Seed, Sampling: scfg,
		Store: store.Config{Backend: store.Disk, Path: dir, MemoryBudget: budget},
	})
	if err != nil {
		return err
	}
	defer diskSys.Close()
	ds, ok := diskSys.Store.(*store.DiskStore)
	if !ok {
		return fmt.Errorf("serving: disk system is backed by %T", diskSys.Store)
	}
	if seg := ds.SegmentBytes(); seg < 4*budget {
		return fmt.Errorf("serving: segment %d bytes under 4x the %d-byte budget", seg, budget)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	src := memSys.BatchSource(batchSize, opts.Seed)
	work := make([][]graph.NodeID, batches)
	for i := range work {
		work[i] = append([]graph.NodeID(nil), src.Next()...)
	}
	run := func(sys *core.System) ([]*sampler.Result, time.Duration, error) {
		out := make([]*sampler.Result, batches)
		start := time.Now()
		for b := range work {
			res, err := sys.SampleSoftware(ctx, work[b])
			if err != nil {
				return nil, 0, err
			}
			out[b] = res
		}
		return out, time.Since(start), nil
	}
	memRes, memWall, err := run(memSys)
	if err != nil {
		return err
	}
	var peak int64
	diskRes, diskWall, err := func() ([]*sampler.Result, time.Duration, error) {
		out := make([]*sampler.Result, batches)
		start := time.Now()
		for b := range work {
			res, err := diskSys.SampleSoftware(ctx, work[b])
			if err != nil {
				return nil, 0, err
			}
			if r := ds.Resident(); r > peak {
				peak = r
			}
			out[b] = res
		}
		return out, time.Since(start), nil
	}()
	if err != nil {
		return err
	}
	for b := range work {
		if !reflect.DeepEqual(diskRes[b], memRes[b]) {
			return fmt.Errorf("serving: disk-backed batch %d diverged from the in-memory tier", b)
		}
	}
	if peak > budget {
		return fmt.Errorf("serving: resident peak %d bytes over the %d-byte budget", peak, budget)
	}
	st := ds.Stats()
	hits, misses := st.CacheHits(), st.CacheMisses()
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	fmt.Fprintf(w, "\ngraph storage beyond RAM (mmap CSR + WAL store):\n")
	fmt.Fprintf(w, "  segment %.1f MB served under a %.1f MB cache budget (%.1fx over-subscribed)\n",
		float64(ds.SegmentBytes())/1e6, float64(budget)/1e6, float64(ds.SegmentBytes())/float64(budget))
	fmt.Fprintf(w, "  in-memory tier:  %10v wall\n", memWall.Round(time.Millisecond))
	fmt.Fprintf(w, "  disk-backed:     %10v wall   %.0f%% cache hits, resident peak %.1f MB (under budget)\n",
		diskWall.Round(time.Millisecond), hitRate*100, float64(peak)/1e6)
	fmt.Fprintf(w, "  results identical across all %d batches\n", batches)
	return nil
}

// elasticRebalance exercises the versioned elastic layout (the serving-side
// analogue of the paper's decoupled FaaS variants, §6 Fig 13) under chaos:
// a 2×2 replicated tier with two spare endpoints serves concurrent batches
// at a 5% injected fault rate while the controller rotates a replica out,
// admits a spare in its place, and migrates the hottest partition — flagged
// by the skew detector, not hand-picked — onto the second spare. Every
// batch, across all the epoch swaps, must match a fault-free static run
// byte for byte.
func elasticRebalance(w io.Writer, opts Options) error {
	const partitions = 2
	batches, batchSize, clients := 24, 96, 6
	if opts.Quick {
		batches, batchSize, clients = 8, 32, 4
	}
	sampling := sampler.Config{
		Fanouts: []int{10, 10}, NegativeRate: 10,
		Method: sampler.Streaming, FetchAttrs: true, Seed: opts.Seed,
	}
	ref, err := core.NewSystem(core.Options{
		Dataset: mustDataset("ss"), Servers: partitions, Seed: opts.Seed, Sampling: sampling,
	})
	if err != nil {
		return err
	}
	sys, err := core.NewSystem(core.Options{
		Dataset: mustDataset("ss"), Servers: partitions, Seed: opts.Seed, Sampling: sampling,
		// Endpoints 0..3 form the 2×2 layout; spares 4 (partition 0) and
		// 5 (partition 1) wait outside it as the rotation's raw material.
		Layout: cluster.UniformLayout(partitions, 2),
		Spares: []int{0, 1},
		Faults: &cluster.FaultSpec{ErrRate: 0.05},
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	src := ref.BatchSource(batchSize, opts.Seed)
	work := make([][]graph.NodeID, batches)
	want := make([]*sampler.Result, batches)
	for i := range work {
		work[i] = append([]graph.NodeID(nil), src.Next()...)
		if want[i], err = ref.SampleSoftware(ctx, work[i]); err != nil {
			return err
		}
	}

	// A skewed tenant heats partition 1 so the detector, not this
	// experiment, picks the migration source.
	part := cluster.HashPartitioner{N: partitions}
	var hotIDs []graph.NodeID
	for v := int64(0); v < sys.Graph.NumNodes() && len(hotIDs) < 8; v++ {
		if part.Owner(graph.NodeID(v)) == 1 {
			hotIDs = append(hotIDs, graph.NodeID(v))
		}
	}
	heat := make([][]graph.NodeID, len(hotIDs))
	for i := 0; i < 64; i++ {
		if err := sys.Client.NeighborsBatch(ctx, heat, hotIDs); err != nil {
			return err
		}
	}
	hotPart, hot := sys.Client.HotShard(1.2)
	if !hot {
		return fmt.Errorf("serving: skew detector missed the heated partition")
	}

	// The controller reshapes the layout while clients drive traffic:
	// replica 2 drains out of partition 0, spare 4 is probed and admitted
	// in its place, then the hot partition moves from endpoint 1 to spare
	// 5 through a dual-home window. Admission probes run over the faulty
	// transport and roll back cleanly, so failed attempts just retry.
	ctrlDone := make(chan error, 1)
	go func() {
		if err := sys.Client.DrainReplica(ctx, 0, 2); err != nil {
			ctrlDone <- fmt.Errorf("drain replica 2: %w", err)
			return
		}
		var err error
		for a := 0; a < 20; a++ {
			if err = sys.Client.AddReplica(ctx, 0, 4); err == nil {
				break
			}
		}
		if err != nil {
			ctrlDone <- fmt.Errorf("add replica 4: %w", err)
			return
		}
		for a := 0; a < 20; a++ {
			if err = sys.Client.MigratePartition(ctx, hotPart, 1, 5); err == nil {
				break
			}
		}
		if err != nil {
			ctrlDone <- fmt.Errorf("migrate partition %d: %w", hotPart, err)
			return
		}
		ctrlDone <- nil
	}()

	start := time.Now()
	var mu sync.Mutex
	var wg sync.WaitGroup
	served, ctrlFinished := 0, false
	var firstErr error
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if firstErr != nil || (served >= batches && ctrlFinished) {
					mu.Unlock()
					return
				}
				b := served % batches
				served++
				mu.Unlock()
				res, err := sys.Client.SampleBatch(ctx, work[b], sampling)
				if err == nil && !reflect.DeepEqual(res, want[b]) {
					err = fmt.Errorf("batch %d diverged from the static run mid-reshape", b)
				}
				if b == batches-1 && err == nil {
					select {
					case cerr := <-ctrlDone:
						mu.Lock()
						ctrlFinished = true
						if cerr != nil && firstErr == nil {
							firstErr = cerr
						}
						mu.Unlock()
					default:
					}
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	wall := time.Since(start)

	l := sys.Client.Layout()
	if l.Contains(1) || l.Contains(2) {
		return fmt.Errorf("serving: departed endpoints still in the layout")
	}
	lay := sys.Client.Lay.Snapshot()
	calls, injected := sys.Faults.Counts()
	rs := sys.Client.Res.Snapshot()
	fmt.Fprintf(w, "\nelastic layout under chaos (§6 decoupled variants): %d batches of %d roots, %d clients, %v wall\n",
		served, batchSize, clients, wall.Round(time.Millisecond))
	fmt.Fprintf(w, "  rotation: drained endpoint 2, admitted spare 4, migrated hot partition %d from endpoint 1 to spare 5\n", hotPart)
	fmt.Fprintf(w, "  epoch %d after %d swaps: %d join, %d drain, %d migration (%d dual-home requests, %d probe failures)\n",
		l.Epoch, lay.Swaps, lay.ReplicaJoins, lay.ReplicaDrains, lay.Migrations, lay.DualHomeRequests, lay.ProbeFailures)
	fmt.Fprintf(w, "  partition 0 now on %v, partition 1 on %v\n", l.Routable(0), l.Routable(1))
	fmt.Fprintf(w, "  chaos: %d of %d calls failed by injection, absorbed by %d retries + %d failovers; every batch byte-identical to the static run\n",
		injected, calls, rs.Retries, rs.Failovers)
	return nil
}

// mustDataset resolves a built-in dataset name; the names used here are
// compile-time constants that exist in the table.
func mustDataset(name string) workload.Dataset {
	ds, err := workload.DatasetByName(name)
	if err != nil {
		panic(err)
	}
	return ds
}

// writeQuantiles prints one histogram's tail summary as durations.
func writeQuantiles(w io.Writer, label string, h stats.HistogramSnapshot) {
	fmt.Fprintf(w, "  %-30s n=%-6d p50=%-10s p90=%-10s p99=%-10s p999=%-10s max=%s\n",
		label, h.Count, secs(h.Quantile(0.5)), secs(h.Quantile(0.9)),
		secs(h.Quantile(0.99)), secs(h.Quantile(0.999)), secs(h.Max))
}

// secs renders a float seconds value as a rounded duration.
func secs(v float64) string {
	return time.Duration(v * float64(time.Second)).Round(time.Microsecond).String()
}

// multiTenantFairness is the gateway's acceptance demo (the paper's FaaS
// premise, §6–7, turned into a serving contract): two tenants share one
// pooled serving path over a 200µs-RTT, 5%-fault storage tier. The greedy
// tenant offers ten times its contracted rate; admission control and
// deficit-round-robin queueing must contain every drop of the excess —
// the light tenant is never shed or rate limited and its rolling p999
// stays inside its objective — and the ledger must balance: every greedy
// batch is admitted, rate limited, or shed. Part two closes the Fig 16
// loop: an autoscaler consulting the perf model and the fitted cost model
// grows the engine pool into pre-built spares under sustained load and
// drains back when it passes.
func multiTenantFairness(w io.Writer, opts Options) error {
	const (
		netDelay   = 200 * time.Microsecond
		lightSLO   = 500 * time.Millisecond
		greedyRate = 150 // roots/s contract for the greedy tenant
	)
	lightBatches, batchSize, greedyClients := 24, 32, 4
	greedyPerClient := 40
	if opts.Quick {
		lightBatches, greedyClients, greedyPerClient = 10, 2, 16
	}
	sys, err := core.NewSystem(core.Options{
		Dataset: mustDataset("ss"), Servers: 4, Seed: opts.Seed,
		Sampling: sampler.Config{
			Fanouts: []int{10, 10}, NegativeRate: 10,
			Method: sampler.Streaming, FetchAttrs: true, Seed: opts.Seed,
		},
		Replicas: 2,
		NetDelay: netDelay,
		Faults:   &cluster.FaultSpec{ErrRate: 0.05},
		Pipeline: &pipeline.Config{},
		Gateway: &gateway.Config{
			Tenants: []gateway.TenantConfig{
				{Name: "light", Key: "light-key", Class: gateway.ClassLatency, Weight: 4, SLO: lightSLO},
				{Name: "greedy", Key: "greedy-key", Class: gateway.ClassThroughput, Weight: 1,
					Rate: greedyRate, Burst: float64(2 * batchSize), SLO: lightSLO},
			},
			QueueDepth:  8,
			MaxInflight: 4,
		},
	})
	if err != nil {
		return err
	}
	defer sys.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	// The greedy tenant fires batches back to back from several clients —
	// roughly 10× its contracted roots/s — ignoring every rejection.
	var wg sync.WaitGroup
	var greedyErr error
	var mu sync.Mutex
	offered := greedyClients * greedyPerClient
	start := time.Now()
	for c := 0; c < greedyClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			src := sys.BatchSource(batchSize, opts.Seed+int64(c)*101)
			for i := 0; i < greedyPerClient; i++ {
				_, err := sys.SampleAs(ctx, "greedy-key", src.Next())
				if err == nil {
					continue
				}
				if _, ok := gateway.AsRateLimited(err); ok {
					continue
				}
				if _, ok := gateway.AsShed(err); ok {
					continue
				}
				if _, ok := cluster.AsPartial(err); ok {
					continue
				}
				var pp *pipeline.PartialError
				if errors.As(err, &pp) {
					continue
				}
				mu.Lock()
				if greedyErr == nil {
					greedyErr = err
				}
				mu.Unlock()
				return
			}
		}(c)
	}

	// The light tenant runs its modest, steady workload through the same
	// gateway while the storm rages.
	lsrc := sys.BatchSource(batchSize, opts.Seed+7)
	for i := 0; i < lightBatches; i++ {
		if _, err := sys.SampleAs(ctx, "light-key", lsrc.Next()); err != nil {
			if _, ok := cluster.AsPartial(err); ok {
				continue
			}
			var pp *pipeline.PartialError
			if errors.As(err, &pp) {
				continue
			}
			return fmt.Errorf("serving: light tenant batch %d rejected: %w", i, err)
		}
	}
	wg.Wait()
	if greedyErr != nil {
		return fmt.Errorf("serving: greedy tenant hit a non-admission error: %w", greedyErr)
	}
	wall := time.Since(start)

	light, greedy := sys.Gateway.Tenant("light"), sys.Gateway.Tenant("greedy")
	lightSnap := sys.Gateway.TenantSLO("light").Snapshot()
	offeredRoots := float64(offered*batchSize) / wall.Seconds()
	fmt.Fprintf(w, "\nmulti-tenant fairness under chaos (§6–7 FaaS contract): %v wall, 200µs RTT, 5%% faults\n",
		wall.Round(time.Millisecond))
	fmt.Fprintf(w, "  greedy offered %d batches (%.0f roots/s ≈ %.0f× its %d roots/s contract): admitted %d, ratelimited %d, shed %d\n",
		offered, offeredRoots, offeredRoots/greedyRate, greedyRate,
		greedy.Admitted(), greedy.RateLimited(), greedy.Shed())
	fmt.Fprintf(w, "  light tenant: %d batches, shed %d, ratelimited %d, SLO good=%d bad=%d burn_fast=%.3g\n",
		lightBatches, light.Shed(), light.RateLimited(), lightSnap.Good, lightSnap.Bad, lightSnap.BurnFast)
	if hist, ok := light.Latency().Window("10s"); ok && hist.Count > 0 {
		fmt.Fprintf(w, "  light 10s-window p999 %.2fms against its %v objective\n",
			hist.Quantile(0.999)*1e3, lightSLO)
		if hist.Quantile(0.999) > lightSLO.Seconds() {
			return fmt.Errorf("serving: light tenant rolling p999 %.1fms breaches its %v objective",
				hist.Quantile(0.999)*1e3, lightSLO)
		}
	}
	if light.Shed() != 0 || light.RateLimited() != 0 {
		return fmt.Errorf("serving: light tenant punished for the greedy tenant's load (shed %d, ratelimited %d)",
			light.Shed(), light.RateLimited())
	}
	if lightSnap.BurnFast > 1 {
		return fmt.Errorf("serving: light tenant SLO fast-burning (%.3g) under a contained storm", lightSnap.BurnFast)
	}
	if got := greedy.Admitted() + greedy.RateLimited() + greedy.Shed(); got != int64(offered) {
		return fmt.Errorf("serving: gateway ledger does not balance: %d admitted + %d ratelimited + %d shed != %d offered",
			greedy.Admitted(), greedy.RateLimited(), greedy.Shed(), offered)
	}
	if greedy.RateLimited()+greedy.Shed() == 0 {
		return fmt.Errorf("serving: greedy tenant at 10× contract was never contained")
	}

	return autoscaleDemo(w, opts)
}

// autoscaleDemo closes the Fig 16 loop live: a system built with two spare
// AxE engines starts serving on four; the autoscaler — the same
// perfmodel + fitted cost model as the offline design-space sweep —
// grows the active pool when offered load exceeds the high-water capacity
// and drains back to the floor when it collapses, printing each
// perf-per-dollar decision.
func autoscaleDemo(w io.Writer, opts Options) error {
	const baseEngines, spares = 4, 2
	sys, err := core.NewSystem(core.Options{
		Dataset: mustDataset("ss"), Servers: baseEngines, Seed: opts.Seed,
		Sampling: sampler.Config{
			Fanouts: []int{10, 10}, NegativeRate: 10,
			Method: sampler.Streaming, FetchAttrs: true, Seed: opts.Seed,
		},
		EngineSpares: spares,
	})
	if err != nil {
		return err
	}
	model, err := cost.Fit(cost.PriceTable())
	if err != nil {
		return err
	}
	wl := perfmodel.Derive(mustDataset("ss"), workload.DefaultSampling(), baseEngines)
	scaler, err := gateway.NewAutoscaler(gateway.AutoscaleConfig{
		Min: baseEngines, Max: baseEngines + spares,
		Machine:  faas.PoCMachine(),
		Workload: wl,
		Cost:     model,
	}, sys.Dispatcher)
	if err != nil {
		return err
	}
	per := perfmodel.Predict(faas.PoCMachine(), wl).RootsPerSecond

	fmt.Fprintf(w, "\nengine-pool autoscaler (Fig 16 as a live loop): %d engines active, %d spares built\n",
		sys.Dispatcher.Active(), spares)
	up := scaler.Evaluate(per * 4.6)
	fmt.Fprintf(w, "  sustained load:  %s\n", up)
	if up.After <= up.Before {
		return fmt.Errorf("serving: autoscaler did not grow the pool under %.0f roots/s", per*4.6)
	}

	// The spares are real engines: with the pool grown, concurrent
	// batches land on them.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	src := sys.BatchSource(64, opts.Seed)
	batches := 24
	if opts.Quick {
		batches = 12
	}
	var wg sync.WaitGroup
	errs := make([]error, batches)
	for i := 0; i < batches; i++ {
		roots := append([]graph.NodeID(nil), src.Next()...)
		wg.Add(1)
		go func(i int, roots []graph.NodeID) {
			defer wg.Done()
			_, _, errs[i] = sys.Dispatcher.Submit(ctx, roots)
		}(i, roots)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	counts := sys.Dispatcher.Counts()
	spareWork := int64(0)
	for _, c := range counts[baseEngines:] {
		spareWork += c
	}
	fmt.Fprintf(w, "  per-engine batches after growth: %v (%d on the spares)\n", counts, spareWork)
	if spareWork == 0 {
		return fmt.Errorf("serving: grown pool never scheduled onto the spare engines (%v)", counts)
	}

	down := scaler.Evaluate(per * 1.2)
	fmt.Fprintf(w, "  load collapsed:  %s\n", down)
	if down.After != baseEngines {
		return fmt.Errorf("serving: autoscaler did not drain back to the %d-engine floor (%+v)", baseEngines, down)
	}
	return nil
}
