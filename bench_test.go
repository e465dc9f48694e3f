// Benchmark harness: one testing.B target per paper table/figure (wrapping
// the experiment runners in quick mode) plus the ablation benches DESIGN.md
// calls out and microbenchmarks of the performance-critical primitives.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
package lsdgnn

import (
	"context"
	"io"
	"math/rand"
	"testing"

	"lsdgnn/internal/axe"
	"lsdgnn/internal/cluster"
	"lsdgnn/internal/experiments"
	"lsdgnn/internal/gnn"
	"lsdgnn/internal/graph"
	"lsdgnn/internal/mof"
	"lsdgnn/internal/qrch"
	"lsdgnn/internal/riscv"
	"lsdgnn/internal/sampler"
)

func benchOpts() experiments.Options { return experiments.Options{Quick: true, Seed: 42} }

func runExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(name, io.Discard, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- one bench per table/figure ---

func BenchmarkFig2a(b *testing.B) { runExperiment(b, "fig2a") }
func BenchmarkFig2b(b *testing.B) { runExperiment(b, "fig2b") }
func BenchmarkFig2c(b *testing.B) { runExperiment(b, "fig2c") }
func BenchmarkFig2d(b *testing.B) { runExperiment(b, "fig2d") }
func BenchmarkFig2e(b *testing.B) { runExperiment(b, "fig2e") }
func BenchmarkFig3(b *testing.B)  { runExperiment(b, "fig3") }
func BenchmarkFig7(b *testing.B)  { runExperiment(b, "fig7") }
func BenchmarkOoO(b *testing.B)   { runExperiment(b, "ooo") }
func BenchmarkStreamingSampling(b *testing.B) {
	// The cycle/structure half of the Tech-2 experiment; the accuracy half
	// (training) lives in the gnn tests.
	rng := sampler.NewRand(1)
	candidates := make([]graph.NodeID, 1000)
	for i := range candidates {
		candidates[i] = graph.NodeID(i)
	}
	var dst []graph.NodeID
	b.Run("reservoir", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dst, _ = sampler.SampleNeighbors(dst[:0], candidates, 10, sampler.Reservoir, &rng)
		}
	})
	b.Run("streaming", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dst, _ = sampler.SampleNeighbors(dst[:0], candidates, 10, sampler.Streaming, &rng)
		}
	})
}
func BenchmarkTable5(b *testing.B) { runExperiment(b, "table5") }
func BenchmarkTable6(b *testing.B) { runExperiment(b, "table6") }
func BenchmarkTable7(b *testing.B) { runExperiment(b, "table7") }
func BenchmarkFig14(b *testing.B)  { runExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { runExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)  { runExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B)  { runExperiment(b, "fig17") }
func BenchmarkFig18(b *testing.B)  { runExperiment(b, "fig18") }
func BenchmarkFig19(b *testing.B)  { runExperiment(b, "fig19") }
func BenchmarkFig20(b *testing.B)  { runExperiment(b, "fig20") }
func BenchmarkFig21(b *testing.B)  { runExperiment(b, "fig21") }

// --- DESIGN.md ablations ---

func benchGraph() *graph.Graph {
	return graph.Generate(graph.GenConfig{NumNodes: 5000, AvgDegree: 10, AttrLen: 64, Seed: 7, PowerLaw: true})
}

func benchEngine(b *testing.B, mutate func(*axe.Config)) *axe.Engine {
	b.Helper()
	cfg := axe.DefaultConfig()
	cfg.Sampling.Fanouts = []int{4, 4}
	cfg.Sampling.NegativeRate = 2
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := axe.New(benchGraph(), cluster.HashPartitioner{N: 4}, 0, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// benchSample samples roots over e's graph under its Sampling config: the
// batch the engine benchmarks then time.
func benchSample(e *axe.Engine, roots []graph.NodeID) *sampler.Result {
	return sampler.New(sampler.LocalStore{G: e.Graph()}, e.Config().Sampling).SampleBatch(roots)
}

func benchRoots(n int) []graph.NodeID {
	rng := rand.New(rand.NewSource(3))
	roots := make([]graph.NodeID, n)
	for i := range roots {
		roots[i] = graph.NodeID(rng.Int63n(5000))
	}
	return roots
}

// BenchmarkAblationWindow sweeps the Tech-3 OoO window.
func BenchmarkAblationWindow(b *testing.B) {
	for _, win := range []int{1, 8, 64, 256} {
		win := win
		b.Run("w"+itoa(win), func(b *testing.B) {
			e := benchEngine(b, func(c *axe.Config) { c.Window = win })
			res := benchSample(e, benchRoots(32))
			var simRoots float64
			for i := 0; i < b.N; i++ {
				st := e.RunBatch(res)
				simRoots = st.RootsPerSecond
			}
			b.ReportMetric(simRoots, "simroots/s")
		})
	}
}

// BenchmarkAblationCores sweeps the Equation 3 core sizing.
func BenchmarkAblationCores(b *testing.B) {
	for _, cores := range []int{1, 2, 4, 8} {
		cores := cores
		b.Run("c"+itoa(cores), func(b *testing.B) {
			e := benchEngine(b, func(c *axe.Config) { c.Cores = cores })
			res := benchSample(e, benchRoots(32))
			var simRoots float64
			for i := 0; i < b.N; i++ {
				st := e.RunBatch(res)
				simRoots = st.RootsPerSecond
			}
			b.ReportMetric(simRoots, "simroots/s")
		})
	}
}

// BenchmarkAblationCache sweeps the Tech-4 coalescing-cache size.
func BenchmarkAblationCache(b *testing.B) {
	for _, size := range []int{0, 2 << 10, 8 << 10, 64 << 10} {
		size := size
		b.Run("cache"+itoa(size), func(b *testing.B) {
			e := benchEngine(b, func(c *axe.Config) { c.CacheBytes = size })
			res := benchSample(e, benchRoots(32))
			var hit float64
			for i := 0; i < b.N; i++ {
				st := e.RunBatch(res)
				hit = st.CacheHitRate
			}
			b.ReportMetric(hit*100, "hit%")
		})
	}
}

// BenchmarkAblationPacking sweeps MoF requests-per-package utilization.
func BenchmarkAblationPacking(b *testing.B) {
	reqs := make([]mof.ReadRequest, 128)
	for i := range reqs {
		reqs[i] = mof.ReadRequest{Addr: uint64(i) * 640, Length: 16}
	}
	c := &mof.Codec{}
	for i := 0; i < b.N; i++ {
		frames, err := c.EncodeReadRequests(1, 2, 0, reqs)
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range frames {
			if _, _, err := c.DecodeReadRequests(f); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- microbenchmarks of the hot primitives ---

func BenchmarkEngineBatch(b *testing.B) {
	e := benchEngine(b, nil)
	res := benchSample(e, benchRoots(64))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunBatch(res)
	}
}

func BenchmarkDistributedSampling(b *testing.B) {
	g := benchGraph()
	part := cluster.HashPartitioner{N: 4}
	servers := make([]*cluster.Server, 4)
	for i := range servers {
		servers[i] = cluster.NewServer(g, part, i)
	}
	client, err := cluster.NewClient(cluster.DirectTransport{Servers: servers}, part, 0)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sampler.Config{Fanouts: []int{10, 10}, NegativeRate: 10, Method: sampler.Streaming, FetchAttrs: true, Seed: 1}
	roots := benchRoots(64)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sampler.KHop(ctx, client, cfg, roots)
		if err != nil {
			b.Fatal(err)
		}
		res.Release()
	}
}

// BenchmarkVecCodecU64s measures the section codec on a clustered node-ID
// vector — the Tech-2 sweet spot the wire path hits once per section.
func BenchmarkVecCodecU64s(b *testing.B) {
	vals := make([]uint64, 512)
	for i := range vals {
		vals[i] = 1_000_000 + uint64(i*3)
	}
	var codec mof.VecCodec
	b.SetBytes(int64(len(vals) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := codec.AppendU64s(nil, vals)
		dec, _, err := codec.ReadU64s(enc)
		if err != nil {
			b.Fatal(err)
		}
		if len(dec) != len(vals) {
			b.Fatalf("%d of %d values decoded", len(dec), len(vals))
		}
	}
}

func BenchmarkMoFFrameCodec(b *testing.B) {
	resps := make([]mof.ReadResponse, 64)
	for i := range resps {
		data := make([]byte, 512)
		resps[i] = mof.ReadResponse{Data: data}
	}
	c := &mof.Codec{CompressData: true}
	b.SetBytes(64 * 512)
	for i := 0; i < b.N; i++ {
		frames, err := c.EncodeReadResponses(1, 2, 0, resps)
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range frames {
			if _, _, err := c.DecodeReadResponses(f); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkRISCVExecution(b *testing.B) {
	bus := &riscv.SystemBus{}
	ram := riscv.NewRAM(64 << 10)
	if err := bus.Map(0, 64<<10, ram); err != nil {
		b.Fatal(err)
	}
	prog, err := riscv.Assemble(`
		li   a0, 0
		li   t0, 1
		li   t1, 2000
	loop:
		add  a0, a0, t0
		addi t0, t0, 1
		bge  t1, t0, loop
		ebreak
	`, 0)
	if err != nil {
		b.Fatal(err)
	}
	copy(ram.Data, prog.Bytes())
	cpu := riscv.NewCPU(bus)
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		cpu.Reset(0)
		if err := cpu.Run(1 << 20); err != nil {
			b.Fatal(err)
		}
		instrs = cpu.Retired
	}
	b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
}

func BenchmarkQRCHInteraction(b *testing.B) {
	for _, c := range []qrch.Coupling{qrch.MMIO, qrch.ISAExt, qrch.QRCH} {
		c := c
		b.Run(c.String(), func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				r, err := qrch.MeasureInteraction(c)
				if err != nil {
					b.Fatal(err)
				}
				cycles = r.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

func BenchmarkGEMM(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := gnn.NewMat(128, 128)
	y := gnn.NewMat(128, 128)
	x.Randomize(rng)
	y.Randomize(rng)
	out := gnn.NewMat(128, 128)
	flops := 2.0 * 128 * 128 * 128
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gnn.MatMul(out, x, y)
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkGraphGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		graph.Generate(graph.GenConfig{NumNodes: 10000, AvgDegree: 10, AttrLen: 64, Seed: int64(i), PowerLaw: true})
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
