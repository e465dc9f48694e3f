package axe

import (
	"testing"
	"testing/quick"

	"lsdgnn/internal/cluster"
	"lsdgnn/internal/graph"
	"lsdgnn/internal/memsys"
	"lsdgnn/internal/sampler"
)

// --- coalescing cache ---

func TestCacheMissThenHit(t *testing.T) {
	c := NewCoalescingCache(1<<10, 64)
	if miss := c.Access(0, 16); miss != 1 {
		t.Fatalf("cold access missed %d lines", miss)
	}
	if miss := c.Access(16, 16); miss != 0 {
		t.Fatalf("adjacent access within line missed %d", miss)
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
	if c.HitRate() != 0.5 {
		t.Fatalf("hit rate %v", c.HitRate())
	}
}

func TestCacheSpanningAccess(t *testing.T) {
	c := NewCoalescingCache(1<<10, 64)
	// 100 bytes starting at 60 spans lines 0 and 1.
	if miss := c.Access(60, 100); miss != 3 {
		// lines 0,1,2: 60..159 touches line 0 (60-63), line 1, line 2 (128-159)
		t.Fatalf("spanning access missed %d lines, want 3", miss)
	}
}

func TestCacheConflictEviction(t *testing.T) {
	c := NewCoalescingCache(2*64, 64) // 2 sets
	c.Access(0, 8)                    // set 0
	c.Access(2*64, 8)                 // also set 0 → evicts
	if miss := c.Access(0, 8); miss != 1 {
		t.Fatal("evicted line still hit")
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCoalescingCache(0, 64)
	c.Access(0, 8)
	if miss := c.Access(0, 8); miss != 1 {
		t.Fatal("disabled cache produced a hit")
	}
	if c.HitRate() != 0 {
		t.Fatal("disabled cache hit rate nonzero")
	}
}

func TestCacheReset(t *testing.T) {
	c := NewCoalescingCache(1<<10, 64)
	c.Access(0, 8)
	c.Reset()
	if c.Hits()+c.Misses() != 0 {
		t.Fatal("reset did not clear counters")
	}
	if miss := c.Access(0, 8); miss != 1 {
		t.Fatal("reset did not invalidate")
	}
}

func TestCacheZeroLengthAccess(t *testing.T) {
	c := NewCoalescingCache(1<<10, 64)
	if c.Access(0, 0) != 0 {
		t.Fatal("zero-length access fetched lines")
	}
}

// --- command codec ---

func TestCommandRoundTrip(t *testing.T) {
	cmd := Command{Op: OpSampleNHop, Flag: 1, Arg0: 7, Arg1: 10, Arg2: 0x2000_0000, Arg3: 512, Txn: 99}
	enc := cmd.Encode()
	got, err := DecodeCommand(enc[:])
	if err != nil || got != cmd {
		t.Fatalf("round trip = %+v, %v", got, err)
	}
}

func TestCommandRejectsBad(t *testing.T) {
	if _, err := DecodeCommand(make([]byte, 5)); err == nil {
		t.Fatal("short record accepted")
	}
	var b [CommandBytes]byte
	b[0] = 200
	if _, err := DecodeCommand(b[:]); err == nil {
		t.Fatal("bad opcode accepted")
	}
}

func TestPropertyCommandRoundTrip(t *testing.T) {
	f := func(op uint8, flag uint8, a0 uint16, a1 uint32, a2, a3, txn uint64) bool {
		cmd := Command{Op: Opcode(op % 7), Flag: flag, Arg0: a0, Arg1: a1, Arg2: a2, Arg3: a3, Txn: txn}
		enc := cmd.Encode()
		got, err := DecodeCommand(enc[:])
		return err == nil && got == cmd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	r := Response{Txn: 123, Status: 1, Value: 1 << 50}
	enc := r.Encode()
	got, err := DecodeResponse(enc[:])
	if err != nil || got != r {
		t.Fatalf("round trip = %+v, %v", got, err)
	}
	if _, err := DecodeResponse(enc[:5]); err == nil {
		t.Fatal("short response accepted")
	}
}

func TestCSRFile(t *testing.T) {
	var f CSRFile
	f.Write(CSRFanout0, 10)
	if f.Read(CSRFanout0) != 10 {
		t.Fatal("CSR write lost")
	}
	f.Write(-1, 5)
	f.Write(NumCSRs, 5)
	if f.Read(-1) != 0 || f.Read(NumCSRs) != 0 {
		t.Fatal("out-of-range CSRs should read as 0")
	}
}

func TestOpcodeStrings(t *testing.T) {
	for op := OpNop; op <= OpNegativeSample; op++ {
		if op.String() == "" {
			t.Fatalf("opcode %d has no name", op)
		}
	}
}

// --- engine ---

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return graph.Generate(graph.GenConfig{NumNodes: 3000, AvgDegree: 10, AttrLen: 16, Seed: 1, PowerLaw: true})
}

func testRoots(g *graph.Graph, n int) []graph.NodeID {
	roots := make([]graph.NodeID, n)
	for i := range roots {
		roots[i] = graph.NodeID(int64(i*31) % g.NumNodes())
	}
	return roots
}

func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.Sampling.Fanouts = []int{4, 4}
	cfg.Sampling.NegativeRate = 2
	return cfg
}

func newEngine(t *testing.T, g *graph.Graph, parts int, cfg Config) *Engine {
	t.Helper()
	e, err := New(g, cluster.HashPartitioner{N: parts}, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// runBatch samples roots under e's Sampling config with the reference
// sampler over e's graph, then times the result on e — the sample-then-time
// sequence every caller of the timing model runs.
func runBatch(e *Engine, roots []graph.NodeID) (*sampler.Result, BatchStats) {
	res := sampler.New(sampler.LocalStore{G: e.g}, e.cfg.Sampling).SampleBatch(roots)
	return res, e.RunBatch(res)
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.ClockHz = 0 },
		func(c *Config) { c.PipelineDepth = 0 },
		func(c *Config) { c.BaseNodeCycles = 0 },
		func(c *Config) { c.Window = 0 },
		func(c *Config) { c.MaxInflightTasks = 0 },
		func(c *Config) { c.LocalChannels = 0 },
		func(c *Config) { c.CacheLineBytes = 0 },
		func(c *Config) { c.Sampling.Fanouts = nil },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidatesHome(t *testing.T) {
	g := testGraph(t)
	if _, err := New(g, cluster.HashPartitioner{N: 2}, 5, DefaultConfig()); err == nil {
		t.Fatal("out-of-range home accepted")
	}
}

func TestEngineResultShapes(t *testing.T) {
	g := testGraph(t)
	e := newEngine(t, g, 4, quickConfig())
	roots := testRoots(g, 16)
	res, st := runBatch(e, roots)
	if len(res.Hops[0]) != 16*4 || len(res.Hops[1]) != 16*16 {
		t.Fatalf("hop sizes %d/%d", len(res.Hops[0]), len(res.Hops[1]))
	}
	if len(res.Negatives) != 32 {
		t.Fatalf("negatives %d", len(res.Negatives))
	}
	want := (16 + 64 + 256 + 32) * 16
	if len(res.Attrs) != want {
		t.Fatalf("attrs %d, want %d", len(res.Attrs), want)
	}
	if st.SimTime <= 0 || st.RootsPerSecond <= 0 {
		t.Fatalf("no timing: %+v", st)
	}
}

func TestEngineSamplesAreNeighbors(t *testing.T) {
	g := testGraph(t)
	e := newEngine(t, g, 4, quickConfig())
	roots := testRoots(g, 8)
	res, _ := runBatch(e, roots)
	check := func(parents, children []graph.NodeID, f int) {
		for i, p := range parents {
			ok := map[graph.NodeID]bool{p: true}
			for _, u := range g.Neighbors(p) {
				ok[u] = true
			}
			for _, c := range children[i*f : (i+1)*f] {
				if !ok[c] {
					t.Fatalf("child %d of %d not neighbor/padding", c, p)
				}
			}
		}
	}
	check(roots, res.Hops[0], 4)
	check(res.Hops[0], res.Hops[1], 4)
}

func TestEngineAttrsMatchGraph(t *testing.T) {
	g := testGraph(t)
	e := newEngine(t, g, 2, quickConfig())
	roots := testRoots(g, 4)
	res, _ := runBatch(e, roots)
	al := g.AttrLen()
	// Roots occupy the first slots.
	for i, v := range roots {
		want := g.Attr(nil, v)
		for j := range want {
			if res.Attrs[i*al+j] != want[j] {
				t.Fatalf("root %d attr mismatch", v)
			}
		}
	}
	// Hop-1 attrs follow and must match the sampled IDs.
	for i, v := range res.Hops[0] {
		want := g.Attr(nil, v)
		for j := range want {
			if res.Attrs[(len(roots)+i)*al+j] != want[j] {
				t.Fatalf("hop-1 node %d attr mismatch", v)
			}
		}
	}
	// Negatives occupy the final slots.
	negBase := len(roots) + len(res.Hops[0]) + len(res.Hops[1])
	for i, v := range res.Negatives {
		want := g.Attr(nil, v)
		for j := range want {
			if res.Attrs[(negBase+i)*al+j] != want[j] {
				t.Fatalf("negative %d attr mismatch", v)
			}
		}
	}
}

func TestEngineDeterministic(t *testing.T) {
	g := testGraph(t)
	run := func() (*sampler.Result, BatchStats) {
		e := newEngine(t, g, 4, quickConfig())
		return runBatch(e, testRoots(g, 8))
	}
	r1, s1 := run()
	r2, s2 := run()
	if s1 != s2 {
		t.Fatalf("timing not deterministic: %+v vs %+v", s1, s2)
	}
	// Timing is a function of the result alone: replaying the same batch
	// on the same engine reproduces every figure.
	e := newEngine(t, g, 4, quickConfig())
	if again := e.RunBatch(r1); again != s1 {
		t.Fatalf("replaying the same batch moved its timing: %+v vs %+v", again, s1)
	}
	for h := range r1.Hops {
		for i := range r1.Hops[h] {
			if r1.Hops[h][i] != r2.Hops[h][i] {
				t.Fatal("samples not deterministic")
			}
		}
	}
}

func TestEngineWindowScaling(t *testing.T) {
	// Tech-3: larger OoO windows must never slow the engine down, and a
	// 64-deep window must be far faster than blocking on a long-latency
	// remote path.
	g := testGraph(t)
	var prev BatchStats
	var first BatchStats
	for i, win := range []int{1, 8, 64} {
		cfg := quickConfig()
		cfg.Window = win
		cfg.Remote = memsys.RDMARemote()
		e := newEngine(t, g, 4, cfg)
		_, st := runBatch(e, testRoots(g, 8))
		if i == 0 {
			first = st
		} else if st.SimTime > prev.SimTime {
			t.Fatalf("window %d slower than smaller window", win)
		}
		prev = st
	}
	if speedup := first.SimTime.Seconds() / prev.SimTime.Seconds(); speedup < 10 {
		t.Fatalf("OoO speedup only %.1f×, expected order ~30×", speedup)
	}
}

func TestEnginePipelineDepthScaling(t *testing.T) {
	g := testGraph(t)
	var times []float64
	for _, depth := range []int{1, 4, 16} {
		cfg := quickConfig()
		cfg.PipelineDepth = depth
		cfg.BaseNodeCycles = 64
		cfg.Sampling.FetchAttrs = false
		cfg.Sampling.NegativeRate = 0
		e := newEngine(t, g, 4, cfg)
		_, st := runBatch(e, testRoots(g, 16))
		times = append(times, st.SimTime.Seconds())
	}
	if !(times[0] > times[1] && times[1] >= times[2]) {
		t.Fatalf("deeper pipeline did not help: %v", times)
	}
}

func TestEngineRemoteShareGrowsWithPartitions(t *testing.T) {
	g := testGraph(t)
	remoteBytes := func(parts int) int64 {
		e := newEngine(t, g, parts, quickConfig())
		_, st := runBatch(e, testRoots(g, 8))
		return st.RemoteBytes
	}
	if remoteBytes(1) != 0 {
		t.Fatal("single partition produced remote traffic")
	}
	r2, r8 := remoteBytes(2), remoteBytes(8)
	if r8 <= r2 {
		t.Fatalf("remote bytes did not grow with partitions: %d vs %d", r2, r8)
	}
}

func TestEngineCacheImprovesOrNeutral(t *testing.T) {
	g := testGraph(t)
	run := func(cacheBytes int) BatchStats {
		cfg := quickConfig()
		cfg.CacheBytes = cacheBytes
		e := newEngine(t, g, 4, cfg)
		_, st := runBatch(e, testRoots(g, 8))
		return st
	}
	off, on := run(0), run(8<<10)
	if on.CacheHitRate <= 0 {
		t.Fatal("8KB cache never hit")
	}
	if on.LocalBytes+on.RemoteBytes > off.LocalBytes+off.RemoteBytes {
		t.Fatal("cache increased memory traffic")
	}
}

func TestEngineOutputBound(t *testing.T) {
	// PoC default config on an attribute-heavy workload is output-bound:
	// the simulated rate should sit within 20% of OutputBW/outputBytes.
	g := graph.Generate(graph.GenConfig{NumNodes: 3000, AvgDegree: 10, AttrLen: 128, Seed: 2, PowerLaw: true})
	cfg := DefaultConfig()
	e := newEngine(t, g, 4, cfg)
	_, st := runBatch(e, testRoots(g, 32))
	bytesPerRoot := float64(st.OutputBytes) / 32
	analytic := cfg.Output.PeakBytesPerSec / bytesPerRoot
	ratio := st.RootsPerSecond / analytic
	if ratio < 0.7 || ratio > 1.1 {
		t.Fatalf("output-bound rate %.0f vs analytic %.0f (ratio %.2f)", st.RootsPerSecond, analytic, ratio)
	}
	if st.OutputUtilization < 0.8 {
		t.Fatalf("output link only %.0f%% busy on an output-bound config", st.OutputUtilization*100)
	}
}

func TestEngineNoAttrFetch(t *testing.T) {
	g := testGraph(t)
	cfg := quickConfig()
	cfg.Sampling.FetchAttrs = false
	e := newEngine(t, g, 2, cfg)
	res, st := runBatch(e, testRoots(g, 8))
	if res.Attrs != nil {
		t.Fatal("attrs fetched despite FetchAttrs=false")
	}
	if st.SimTime <= 0 {
		t.Fatal("no timing")
	}
}

func TestEngineSharedOutputWithLocal(t *testing.T) {
	// base-style: output and local memory share PCIe; total time must be
	// at least the serialized sum of both traffic classes over one link.
	g := testGraph(t)
	cfg := quickConfig()
	cfg.Local = memsys.PCIeHostDRAM()
	cfg.LocalChannels = 1
	cfg.OutputSharesLocal = true
	e := newEngine(t, g, 1, cfg)
	_, st := runBatch(e, testRoots(g, 16))
	minTime := float64(st.LocalBytes+st.OutputBytes) / cfg.Local.PeakBytesPerSec
	if st.SimTime.Seconds() < minTime*0.95 {
		t.Fatalf("shared-link run finished faster than the link allows: %v < %v",
			st.SimTime.Seconds(), minTime)
	}
}

func TestEngineRemoteSharesLocal(t *testing.T) {
	g := testGraph(t)
	cfg := quickConfig()
	cfg.Local = memsys.PCIeHostDRAM()
	cfg.LocalChannels = 1
	cfg.RemoteSharesLocal = true
	cfg.OutputSharesLocal = true
	e := newEngine(t, g, 4, cfg)
	_, st := runBatch(e, testRoots(g, 8))
	// Everything rides one 16 GB/s link.
	minTime := float64(st.LocalBytes+st.RemoteBytes+st.OutputBytes) / cfg.Local.PeakBytesPerSec
	if st.SimTime.Seconds() < minTime*0.9 {
		t.Fatalf("fully-shared run too fast: %v < %v", st.SimTime.Seconds(), minTime)
	}
}

func TestEngineReservoirMethod(t *testing.T) {
	g := testGraph(t)
	cfg := quickConfig()
	cfg.Sampling.Method = sampler.Reservoir
	e := newEngine(t, g, 2, cfg)
	res, _ := runBatch(e, testRoots(g, 8))
	// Reservoir sampling never duplicates within one expansion when the
	// parent's adjacency list is itself duplicate-free (the generator can
	// produce parallel edges, which legitimately repeat).
	for i, p := range testRoots(g, 8) {
		if g.Degree(p) < 4 {
			continue
		}
		uniq := map[graph.NodeID]bool{}
		dupFree := true
		for _, u := range g.Neighbors(p) {
			if uniq[u] {
				dupFree = false
				break
			}
			uniq[u] = true
		}
		if !dupFree {
			continue
		}
		seen := map[graph.NodeID]bool{}
		for _, c := range res.Hops[0][i*4 : (i+1)*4] {
			if seen[c] {
				t.Fatalf("reservoir duplicated %d under parent %d", c, p)
			}
			seen[c] = true
		}
	}
}

func TestEngineSupernode(t *testing.T) {
	// Tech-1's "loosely coupled dataflow naturally supports the supernode
	// scenario": a node with a huge adjacency list must neither break
	// functional sampling nor stall the simulation.
	const n = 2000
	b := graph.NewBuilder(n, 4)
	for i := int64(1); i < n; i++ {
		_ = b.AddEdge(0, graph.NodeID(i)) // node 0 is a supernode
		_ = b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig()
	e, errN := New(g, cluster.HashPartitioner{N: 2}, 0, cfg)
	if errN != nil {
		t.Fatal(errN)
	}
	roots := []graph.NodeID{0, 0, 0, 0}
	res, st := runBatch(e, roots)
	if st.SimTime <= 0 {
		t.Fatal("supernode batch produced no timing")
	}
	seen := map[graph.NodeID]bool{}
	for _, c := range res.Hops[0] {
		if c == 0 {
			t.Fatal("supernode should never need padding")
		}
		seen[c] = true
	}
	if len(seen) < 4 {
		t.Fatalf("supernode samples collapsed to %d distinct nodes", len(seen))
	}
}

func TestEngineOneAndThreeHops(t *testing.T) {
	g := testGraph(t)
	for _, fanouts := range [][]int{{6}, {3, 3, 3}} {
		cfg := quickConfig()
		cfg.Sampling.Fanouts = fanouts
		e := newEngine(t, g, 2, cfg)
		roots := testRoots(g, 4)
		res, st := runBatch(e, roots)
		if len(res.Hops) != len(fanouts) {
			t.Fatalf("%v: hops = %d", fanouts, len(res.Hops))
		}
		level := len(roots)
		total := level
		for h, f := range fanouts {
			level *= f
			if len(res.Hops[h]) != level {
				t.Fatalf("%v: hop %d size %d, want %d", fanouts, h, len(res.Hops[h]), level)
			}
			total += level
		}
		want := (total + len(res.Negatives)) * g.AttrLen()
		if len(res.Attrs) != want {
			t.Fatalf("%v: attrs %d, want %d", fanouts, len(res.Attrs), want)
		}
		if st.SimTime <= 0 {
			t.Fatalf("%v: no timing", fanouts)
		}
	}
}

func TestEngineUtilizationStats(t *testing.T) {
	g := testGraph(t)
	e := newEngine(t, g, 2, quickConfig())
	_, st := runBatch(e, testRoots(g, 16))
	for name, u := range map[string]float64{
		"pipeline": st.PipelineUtilization,
		"sample":   st.SampleUtilization,
		"attr":     st.AttrUtilization,
		"local":    st.LocalUtilization,
		"output":   st.OutputUtilization,
	} {
		if u < 0 || u > 1 {
			t.Fatalf("%s utilization %v out of [0,1]", name, u)
		}
	}
	if st.AttrUtilization == 0 {
		t.Fatal("attr unit never busy despite attribute fetches")
	}
}
