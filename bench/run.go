package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/mem"
	"lsdgnn/internal/sampler"
	"lsdgnn/internal/workload"
)

const (
	graphNodes  = 400_000
	graphDegree = 12
	graphAttr   = 64

	setupCycles  = 5
	checkBatches = 8
	warmup       = 2 * time.Second
	// minWindow is the shortest measurement window the harness accepts:
	// below it the per-window percentiles run out of samples.
	minWindow = 4 * time.Second
	// batchPool is how many distinct root batches the closed-loop client
	// cycles through (far more than a run consumes, so no batch repeats
	// and no page is re-touched because the generator wrapped).
	batchPool = 1 << 14
)

// runConfig is one invocation: a workload, its input seed, how long to
// measure, and whether this is the traced run.
type runConfig struct {
	w       workloadSpec
	seed    int64
	seconds int
	traced  bool
	outDir  string
	tmpDir  string
}

// inputs is everything generated from the seed. The program under test is
// handed graphPath, the root batches and the edges; g stays with the
// harness as the reference the outputs are checked against.
type inputs struct {
	g         *graph.Graph
	graphPath string
	scfg      sampler.Config
	batches   [][]graph.NodeID // what the load generator sends, in order
	checks    [][]graph.NodeID // checkBatches before + checkBatches after
	edges     []edge
}

func makeInputs(cfg runConfig, dir string) (*inputs, error) {
	in := &inputs{
		graphPath: filepath.Join(dir, "graph.bin"),
		scfg: sampler.Config{
			Fanouts: []int{10, 10}, NegativeRate: 10, Method: sampler.Streaming,
			FetchAttrs: true, Seed: cfg.seed, RootStreams: true,
		},
	}
	in.g = graph.Generate(graph.GenConfig{
		NumNodes: graphNodes, AvgDegree: graphDegree, AttrLen: graphAttr,
		Seed: cfg.seed, PowerLaw: true,
	})
	if err := in.g.Save(in.graphPath); err != nil {
		return nil, fmt.Errorf("save graph: %w", err)
	}
	// Flush the input file now, untimed: left dirty, its pages are written
	// back by whichever fsync comes first, and that is a bulk-load inside a
	// timed set-up cycle.
	if err := syncFile(in.graphPath); err != nil {
		return nil, fmt.Errorf("sync graph: %w", err)
	}
	span := warmup.Seconds() + float64(cfg.seconds) + 5
	n := batchPool
	if cfg.w.rate > 0 {
		n = int(cfg.w.rate * span)
	}
	src := workload.NewBatchSource(graphNodes, cfg.w.batch, cfg.seed*1000+1)
	in.batches = make([][]graph.NodeID, n)
	for i := range in.batches {
		in.batches[i] = src.Next()
	}
	src = workload.NewBatchSource(graphNodes, cfg.w.batch, cfg.seed*1000+999)
	for i := 0; i < 2*checkBatches; i++ {
		in.checks = append(in.checks, src.Next())
	}
	if cfg.w.ingest > 0 {
		rng := rand.New(rand.NewSource(cfg.seed*1000 + 998))
		in.edges = make([]edge, int(cfg.w.ingest*span))
		for i := range in.edges {
			in.edges[i] = edge{graph.NodeID(rng.Int63n(graphNodes)), graph.NodeID(rng.Int63n(graphNodes))}
		}
	}
	return in, nil
}

func syncFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// verify runs each batch through sample and requires the result to equal
// what the plain in-memory sampler produces over the reference graph.
func verify(ctx context.Context, sample sampleFunc, in *inputs, batches [][]graph.NodeID) error {
	ref := sampler.New(sampler.LocalStore{G: in.g}, in.scfg)
	for i, roots := range batches {
		want, err := ref.Sample(ctx, roots)
		if err != nil {
			return fmt.Errorf("reference sampler: %w", err)
		}
		got, err := sample(ctx, roots)
		if err != nil {
			want.Release()
			return fmt.Errorf("check batch %d: %w", i, err)
		}
		same := reflect.DeepEqual(got.Roots, want.Roots) && reflect.DeepEqual(got.Hops, want.Hops) &&
			reflect.DeepEqual(got.Negatives, want.Negatives) && reflect.DeepEqual(got.Attrs, want.Attrs) &&
			got.Cycles == want.Cycles
		got.Release()
		want.Release()
		if !same {
			return fmt.Errorf("check batch %d differs from the reference sampler", i)
		}
	}
	return nil
}

// snapshot is the process- and wire-level state at a window boundary.
type snapshot struct {
	at         time.Time
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	wireBytes  int64
	layers     map[string]float64 // traced runs only
}

func takeSnapshot(st *stack) snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := snapshot{
		at: time.Now(), cpu: processCPU(),
		mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC,
		wireBytes: st.wire.reqBytes.Load() + st.wire.respBytes.Load(),
	}
	if st.tr != nil {
		s.layers = st.layerCounters()
	}
	return s
}

// runWorkload does one whole run and returns its metrics. The returned
// error is non-nil when an output was wrong or an invariant broke; the
// report is still filled in as far as the run got.
func runWorkload(ctx context.Context, cfg runConfig) (*report, error) {
	window := time.Duration(cfg.seconds) * time.Second / nWindows
	if window < minWindow {
		return nil, fmt.Errorf("-seconds %d gives %v windows; need at least %v", cfg.seconds, window, minWindow)
	}
	dir, err := os.MkdirTemp(cfg.tmpDir, "lsdgnn-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	in, err := makeInputs(cfg, dir)
	if err != nil {
		return nil, err
	}
	// Drop the generator's edge lists and start the resident-set high-water
	// mark afresh, so peak_rss_mb is the serving path's and not the input
	// generator's (or, with several workloads in one process, the previous
	// workload's).
	debug.FreeOSMemory()
	resetPeakRSS()
	opts := func(name string, tr *tracer) stackOpts {
		o := stackOpts{graphPath: in.graphPath, scfg: in.scfg, tr: tr}
		if cfg.w.disk {
			o.storeDir = filepath.Join(dir, name)
		}
		return o
	}

	rep := &report{}
	// Set-up is timed several times in-process and reported as a median:
	// the first cycle pays for a cold binary and cold page cache, which
	// are the machine's, not the program's. Traced runs report no
	// end-to-end metric and skip this.
	if !cfg.traced {
		for c := 0; c < setupCycles; c++ {
			start := time.Now()
			st, err := buildStack(ctx, opts(fmt.Sprintf("cycle-%d", c), nil))
			if err != nil {
				return rep, fmt.Errorf("set-up cycle %d: %w", c, err)
			}
			err = verify(ctx, st.sample, in, in.checks[:1])
			if cerr := st.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return rep, fmt.Errorf("set-up cycle %d: %w", c, err)
			}
			rep.setupS = append(rep.setupS, time.Since(start).Seconds())
			// Untimed: collect the torn-down cycle's graph and shards now, so
			// peak_rss_mb is one stack's footprint and not however many dead
			// ones the collector had not reached yet.
			runtime.GC()
		}
	}

	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	st, err := buildStack(ctx, opts("serve", tr))
	if err != nil {
		return rep, err
	}
	closed := false
	defer func() {
		if !closed {
			st.Close()
		}
	}()
	if err := verify(ctx, st.sample, in, in.checks[:checkBatches]); err != nil {
		return rep, err
	}

	// Load: the generators run from here through warm-up and all windows;
	// only what completes inside a window is kept.
	rec := newRecorder()
	var stop atomic.Bool
	var wg sync.WaitGroup
	loadCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	wg.Add(1)
	go func() {
		defer wg.Done()
		if cfg.w.rate > 0 {
			openLoop(loadCtx, st.sample, in.batches, cfg.w.rate, rec, &stop)
		} else {
			closedLoop(loadCtx, st.sample, in.batches, rec, &stop)
		}
	}()
	if cfg.w.ingest > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep.written = ingestLoop(loadCtx, st.addEdge, in.edges, cfg.w.ingest, rec, &stop)
		}()
	}

	time.Sleep(warmup)
	begin := time.Now()
	for i := 0; i < nWindows; i++ {
		// On a traced run the tracer is on for every other window; the
		// windows between give the untraced throughput of the same
		// process on the same inputs, which is what overhead is against.
		rep.traced[i] = tr != nil && i%2 == 0
		if tr != nil {
			tr.on.Store(rep.traced[i])
		}
		rep.snaps[i] = takeSnapshot(st)
		rec.setWindow(i)
		time.Sleep(time.Until(begin.Add(time.Duration(i+1) * window)))
	}
	rec.setWindow(-1)
	rep.snaps[nWindows] = takeSnapshot(st)
	if tr != nil {
		tr.on.Store(false)
	}
	stop.Store(true)
	wg.Wait()
	rep.wins, rep.firstErr = rec.wins, rec.firstErr

	// Post-checks, while the path is still up.
	var problems []error
	if cfg.w.readOnly() {
		problems = append(problems, verify(ctx, st.sample, in, in.checks[checkBatches:]))
	} else {
		problems = append(problems, st.checkIngested(rep.written))
	}
	problems = append(problems, st.residentOverBudget())
	if cfg.traced {
		rep.residentMB = st.residentMB()
		if cfg.w.ingest > 0 {
			ms, err := st.compactAll(rep.written)
			rep.compactMS = ms
			problems = append(problems, err)
		}
		rep.final = st.layerCounters()
	}
	closed = true
	problems = append(problems, st.Close())
	if rep.outstanding = mem.Outstanding(); rep.outstanding != 0 {
		problems = append(problems, fmt.Errorf("%d pooled scratch buffers still outstanding after teardown", rep.outstanding))
	}

	if cfg.traced {
		rep.spans = tr.snapshot()
		path, err := writeSpans(cfg.outDir, cfg.w.name, rep.spans)
		problems = append(problems, err)
		rep.tracePath = path
		probes, err := runProbes(ctx, in, dir)
		rep.probes = probes
		problems = append(problems, err)
	}
	rep.peakRSSMB = peakRSSMB()
	return rep, errors.Join(problems...)
}
