package core

import (
	"context"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"lsdgnn/internal/axe"
	"lsdgnn/internal/cluster"
	"lsdgnn/internal/gateway"
	"lsdgnn/internal/graph"
	"lsdgnn/internal/obs"
	"lsdgnn/internal/sampler"
	"lsdgnn/internal/store"
	"lsdgnn/internal/workload"
)

func testSystem(t *testing.T) *System {
	t.Helper()
	g := graph.Generate(graph.GenConfig{NumNodes: 2000, AvgDegree: 8, AttrLen: 8, Seed: 3, PowerLaw: true})
	sys, err := NewSystem(Options{Graph: g, Servers: 4, Seed: 3,
		Sampling: sampler.Config{Fanouts: []int{4, 3}, NegativeRate: 2, Method: sampler.Streaming, FetchAttrs: true, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(Options{Servers: 0}); err == nil {
		t.Fatal("0 servers accepted")
	}
	if _, err := NewSystem(Options{Servers: 1}); err == nil {
		t.Fatal("no graph and no dataset accepted")
	}
}

func TestNewSystemFromDataset(t *testing.T) {
	ds, _ := workload.DatasetByName("ss")
	sys, err := NewSystem(Options{Dataset: ds, Servers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Graph.NumNodes() != ds.SimNodes {
		t.Fatal("dataset graph not built")
	}
	// Defaults applied.
	if len(sys.Sampling.Fanouts) != 2 || sys.Sampling.Fanouts[0] != 10 {
		t.Fatalf("default sampling = %+v", sys.Sampling)
	}
	if len(sys.Engines) != 2 || len(sys.Servers) != 2 {
		t.Fatal("per-partition components missing")
	}
}

func TestSoftwareAndAcceleratedAgree(t *testing.T) {
	sys := testSystem(t)
	roots := sys.BatchSource(8, 1).Next()
	sw, err := sys.Pipeline.Sample(context.Background(), roots)
	if err != nil {
		t.Fatal(err)
	}
	hw, st, err := sys.Sample(context.Background(), roots)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Hops[0]) != len(hw.Hops[0]) || len(sw.Hops[1]) != len(hw.Hops[1]) {
		t.Fatal("layouts differ")
	}
	if len(sw.Attrs) != len(hw.Attrs) {
		t.Fatal("attr layouts differ")
	}
	if st.SimTime <= 0 {
		t.Fatal("no hardware timing")
	}
	// Both sample genuine neighborhoods of the same graph.
	for i, p := range roots {
		ok := map[graph.NodeID]bool{p: true}
		for _, u := range sys.Graph.Neighbors(p) {
			ok[u] = true
		}
		for _, c := range hw.Hops[0][i*4 : (i+1)*4] {
			if !ok[c] {
				t.Fatalf("accelerated child %d of %d invalid", c, p)
			}
		}
		for _, c := range sw.Hops[0][i*4 : (i+1)*4] {
			if !ok[c] {
				t.Fatalf("software child %d of %d invalid", c, p)
			}
		}
	}
}

func TestControllerCSRCommands(t *testing.T) {
	sys := testSystem(t)
	ctl, err := NewController(sys.Engines[0])
	if err != nil {
		t.Fatal(err)
	}
	resp := ctl.Execute(axe.Command{Op: axe.OpSetCSR, Arg0: axe.CSRFanout0, Arg1: 7, Txn: 1})
	if resp.Status != 0 {
		t.Fatal("set-csr failed")
	}
	resp = ctl.Execute(axe.Command{Op: axe.OpReadCSR, Arg0: axe.CSRFanout0, Txn: 2})
	if resp.Value != 7 {
		t.Fatalf("read-csr = %d", resp.Value)
	}
}

func TestControllerSampleCommand(t *testing.T) {
	sys := testSystem(t)
	ctl, err := NewController(sys.Engines[0])
	if err != nil {
		t.Fatal(err)
	}
	// Write 4 roots into shared memory, then execute a sample command.
	roots := []graph.NodeID{10, 20, 30, 40}
	base := uint64(SharedBase + 0x100)
	for i, v := range roots {
		if !ctl.writeWord64(base+uint64(i)*8, uint64(v)) {
			t.Fatal("shared write failed")
		}
	}
	resp := ctl.Execute(axe.Command{Op: axe.OpSampleNHop, Arg2: base, Arg3: 4, Txn: 5})
	if resp.Status != 0 {
		t.Fatal("sample command failed")
	}
	want := uint64(4*4 + 4*4*3) // hop1 + hop2 entries
	if resp.Value != want {
		t.Fatalf("sampled %d ids, want %d", resp.Value, want)
	}
	// The sampled IDs landed behind the input buffer and are valid nodes.
	out := base + 4*8
	for i := uint64(0); i < resp.Value; i++ {
		id, ok := ctl.readRoots(out+i*8, 1)
		if !ok || !sys.Graph.HasNode(id[0]) {
			t.Fatalf("output id %d invalid", i)
		}
	}
}

func TestControllerNegativeSample(t *testing.T) {
	sys := testSystem(t)
	ctl, _ := NewController(sys.Engines[0])
	base := uint64(SharedBase)
	ctl.writeWord64(base, 1)
	resp := ctl.Execute(axe.Command{Op: axe.OpNegativeSample, Arg1: 5, Arg2: base, Arg3: 1, Txn: 9})
	if resp.Status != 0 || resp.Value != 5 {
		t.Fatalf("negative sample: %+v", resp)
	}
	for i := uint64(0); i < 5; i++ {
		id, ok := ctl.readRoots(base+8+i*8, 1)
		if !ok || !sys.Graph.HasNode(id[0]) {
			t.Fatal("negative id out of range")
		}
	}
}

func TestControllerBadAddresses(t *testing.T) {
	sys := testSystem(t)
	ctl, _ := NewController(sys.Engines[0])
	resp := ctl.Execute(axe.Command{Op: axe.OpSampleNHop, Arg2: 0x1000, Arg3: 4, Txn: 1})
	if resp.Status == 0 {
		t.Fatal("out-of-window buffer accepted")
	}
	resp = ctl.Execute(axe.Command{Op: axe.OpSampleNHop, Arg2: SharedBase + SharedSize - 8, Arg3: 100, Txn: 2})
	if resp.Status == 0 {
		t.Fatal("overflowing buffer accepted")
	}
}

// TestRISCVDrivesEngine is the full control-plane integration: an assembled
// RISC-V program writes roots to shared memory, pushes a 32-byte sample
// command through QRCH word by word, pops the response, and the test
// verifies the sampled IDs in shared memory.
func TestRISCVDrivesEngine(t *testing.T) {
	sys := testSystem(t)
	ctl, err := NewController(sys.Engines[0])
	if err != nil {
		t.Fatal(err)
	}
	// Command record: Op=OpSampleNHop(3) in byte 0; Arg2=0x20000100 (words
	// 2,3); Arg3=2 roots (words 4,5); Txn=0xAB (words 6,7).
	src := `
		# roots 15 and 25 into shared memory at 0x20000100
		li   t0, 0x20000100
		li   t1, 15
		sw   t1, 0(t0)
		sw   zero, 4(t0)
		li   t1, 25
		sw   t1, 8(t0)
		sw   zero, 12(t0)
		# push the 8-word command record to queue 0
		li   a0, 3            # word0: opcode OpSampleNHop
		li   a1, 0            # word1
		qpush 0, a0, a1
		li   a0, 0x20000100   # word2: Arg2 lo
		li   a1, 0            # word3: Arg2 hi
		qpush 0, a0, a1
		li   a0, 2            # word4: Arg3 lo (2 roots)
		li   a1, 0            # word5
		qpush 0, a0, a1
		li   a0, 0xAB         # word6: Txn lo
		li   a1, 0            # word7
		qpush 0, a0, a1
		# pop the 2-word response
		qpop a2, 0            # txn echo
		qpop a3, 0            # sampled-id count
		ebreak
	`
	if err := ctl.LoadProgram(src); err != nil {
		t.Fatal(err)
	}
	if err := ctl.CPU.Run(1 << 16); err != nil {
		t.Fatal(err)
	}
	if ctl.CPU.X[12] != 0xAB {
		t.Fatalf("txn echo = %#x", ctl.CPU.X[12])
	}
	wantIDs := uint32(2*4 + 2*4*3)
	if ctl.CPU.X[13] != wantIDs {
		t.Fatalf("id count = %d, want %d", ctl.CPU.X[13], wantIDs)
	}
	// Verify the sampled IDs: children of root 15 come first.
	out := uint64(SharedBase + 0x100 + 2*8)
	ids, ok := ctl.readRoots(out, uint64(wantIDs))
	if !ok {
		t.Fatal("cannot read back results")
	}
	valid := map[graph.NodeID]bool{15: true}
	for _, u := range sys.Graph.Neighbors(15) {
		valid[u] = true
	}
	for _, c := range ids[:4] {
		if !valid[c] {
			t.Fatalf("sampled id %d is not a neighbor of root 15", c)
		}
	}
	if ctl.Hub.Handled() != 1 {
		t.Fatalf("hub handled %d commands", ctl.Hub.Handled())
	}
}

func TestPipelineModelFigure3(t *testing.T) {
	p := DefaultPipelineModel()
	train := p.SamplingShare(true)
	infer := p.SamplingShare(false)
	// Paper: 64% training, 88% inference. Allow ±10 points.
	if train < 0.54 || train > 0.80 {
		t.Fatalf("training sampling share = %.2f, paper 0.64", train)
	}
	if infer < 0.78 || infer > 0.96 {
		t.Fatalf("inference sampling share = %.2f, paper 0.88", infer)
	}
	if infer <= train {
		t.Fatal("inference must be more sampling-dominated than training")
	}
	// Storage gap ≈ 5-7 orders of magnitude.
	ratio := p.StorageRatio()
	if ratio < 1e5 || ratio > 1e8 {
		t.Fatalf("storage ratio = %.1e", ratio)
	}
}

func TestPipelineBreakdownSumsToOne(t *testing.T) {
	p := DefaultPipelineModel()
	st := p.StageSeconds(true)
	var sum float64
	for _, s := range st.Breakdown() {
		sum += s.Share
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares sum to %v", sum)
	}
}

func TestLoadProgramTooBig(t *testing.T) {
	sys := testSystem(t)
	ctl, _ := NewController(sys.Engines[0])
	big := ""
	for i := 0; i < IMemSize/4+8; i++ {
		big += "nop\n"
	}
	if err := ctl.LoadProgram(big); err == nil {
		t.Fatal("oversized program accepted")
	}
}

func TestControllerReadNodeAttr(t *testing.T) {
	sys := testSystem(t)
	ctl, _ := NewController(sys.Engines[0])
	base := uint64(SharedBase + 0x400)
	ids := []graph.NodeID{3, 9}
	for i, v := range ids {
		ctl.writeWord64(base+uint64(i)*8, uint64(v))
	}
	resp := ctl.Execute(axe.Command{Op: axe.OpReadNodeAttr, Arg2: base, Arg3: 2, Txn: 11})
	al := sys.Graph.AttrLen()
	if resp.Status != 0 || resp.Value != uint64(2*al) {
		t.Fatalf("read-node-attr: %+v", resp)
	}
	out := base + 2*8
	want := sys.Graph.Attr(nil, 3)
	for j, f := range want {
		off := out - SharedBase + uint64(j)*4
		got := math.Float32frombits(binary.LittleEndian.Uint32(ctl.Shared.Data[off:]))
		if got != f {
			t.Fatalf("attr %d = %v, want %v", j, got, f)
		}
	}
}

func TestControllerReadEdgeAttr(t *testing.T) {
	sys := testSystem(t)
	ctl, _ := NewController(sys.Engines[0])
	base := uint64(SharedBase + 0x800)
	pairs := []graph.NodeID{1, 2, 3, 4}
	for i, v := range pairs {
		ctl.writeWord64(base+uint64(i)*8, uint64(v))
	}
	resp := ctl.Execute(axe.Command{Op: axe.OpReadEdgeAttr, Arg2: base, Arg3: 2, Txn: 12})
	if resp.Status != 0 || resp.Value != 2 {
		t.Fatalf("read-edge-attr: %+v", resp)
	}
	out := base - SharedBase + 4*8
	w0 := math.Float32frombits(binary.LittleEndian.Uint32(ctl.Shared.Data[out:]))
	w1 := math.Float32frombits(binary.LittleEndian.Uint32(ctl.Shared.Data[out+4:]))
	if w0 < 0 || w0 >= 1 || w1 < 0 || w1 >= 1 {
		t.Fatalf("edge weights out of range: %v %v", w0, w1)
	}
	if w0 == w1 {
		t.Fatal("distinct pairs produced identical weights")
	}
	// Deterministic: re-running gives the same weights.
	resp2 := ctl.Execute(axe.Command{Op: axe.OpReadEdgeAttr, Arg2: base, Arg3: 2, Txn: 13})
	if resp2.Status != 0 {
		t.Fatal("rerun failed")
	}
	if w0 != math.Float32frombits(binary.LittleEndian.Uint32(ctl.Shared.Data[out:])) {
		t.Fatal("edge weights not deterministic")
	}
}

// TestSystemTracing checks the end-to-end hop breakdown: an executor batch
// records batch/rpc/wire/server hops, an accelerated batch adds
// dispatch/engine hops, and the registry exports them all.
func TestSystemTracing(t *testing.T) {
	sys := testSystem(t)
	src := sys.BatchSource(32, 7)
	if _, err := sys.Pipeline.Sample(context.Background(), src.Next()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.Sample(context.Background(), src.Next()); err != nil {
		t.Fatal(err)
	}
	for _, hop := range []string{obs.HopBatch, obs.HopRPC, obs.HopWire, obs.HopServer, obs.HopDispatchWait, obs.HopEngine} {
		if sys.Obs.Hop(hop).Count == 0 {
			t.Fatalf("hop %q unrecorded; have %v", hop, sys.Obs.Hops())
		}
	}
	if _, _, ok := sys.Obs.LastTrace(); !ok {
		t.Fatal("no trace in span log")
	}
	var buf strings.Builder
	if _, err := sys.StatsRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"lsdgnn_obs_hops_server_seconds_bucket",
		"lsdgnn_obs_hops_engine_seconds_count",
		"lsdgnn_pipeline_batch_latency_seconds_bucket",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("registry exposition missing %q", want)
		}
	}
}

// TestNewSystemLayoutBuild: WithLayout-mode assembly builds one server per
// layout endpoint plus listed spares, one engine per partition, and rejects
// layouts with unassigned endpoints or out-of-range spares.
func TestNewSystemLayoutBuild(t *testing.T) {
	g := graph.Generate(graph.GenConfig{NumNodes: 1000, AvgDegree: 6, AttrLen: 4, Seed: 5, PowerLaw: true})
	sys, err := NewSystem(Options{Graph: g, Servers: 2, Seed: 5,
		Layout: cluster.UniformLayout(2, 2), Spares: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	// 4 layout endpoints + 1 spare, but still 2 partitions of engines.
	if len(sys.Servers) != 5 {
		t.Fatalf("servers = %d, want 5", len(sys.Servers))
	}
	if len(sys.Engines) != 2 {
		t.Fatalf("engines = %d, want 2", len(sys.Engines))
	}
	if sys.Client.Layout() == nil || sys.Client.Layout().Epoch != 1 {
		t.Fatal("client not routing by the layout")
	}
	if _, err := sys.Pipeline.Sample(context.Background(), sys.BatchSource(8, 1).Next()); err != nil {
		t.Fatal(err)
	}
	// The layout stats layer is registered from the start.
	found := false
	for _, snap := range sys.StatsRegistry().Collect() {
		if snap.Layer == "cluster.layout" {
			found = true
		}
	}
	if !found {
		t.Fatal("cluster.layout layer not registered")
	}

	// A layout that skips endpoint 0 leaves a transport slot unassigned.
	gap := &cluster.Layout{Epoch: 1, Partitions: [][]int{{1}, {2}}}
	if _, err := NewSystem(Options{Graph: g, Servers: 2, Seed: 5, Layout: gap}); err == nil || !strings.Contains(err.Error(), "unassigned") {
		t.Fatalf("gapped layout accepted: %v", err)
	}
	// A spare for a partition the system does not have is a config bug.
	if _, err := NewSystem(Options{Graph: g, Servers: 2, Seed: 5,
		Layout: cluster.UniformLayout(2, 2), Spares: []int{7}}); err == nil {
		t.Fatal("out-of-range spare accepted")
	}
}

// TestSystemOverSubscribedDiskStore serves the same batches from memory and
// from a disk store whose page-cache budget is at most a quarter of its
// segment — materialised attributes, so the segment carries the attribute
// table that makes real graphs outgrow RAM (§2, Fig 2a). Every batch must
// match the in-memory system's, and residency must stay within the budget.
func TestSystemOverSubscribedDiskStore(t *testing.T) {
	const budget = 4 * store.PageSize
	g := graph.Generate(graph.GenConfig{NumNodes: 4000, AvgDegree: 8, AttrLen: 64, Seed: 5, PowerLaw: true, Materialize: true})
	scfg := sampler.Config{Fanouts: []int{4, 3}, NegativeRate: 2, Method: sampler.Streaming, FetchAttrs: true, Seed: 5}
	memSys, err := NewSystem(Options{Graph: g, Servers: 4, Seed: 5, Sampling: scfg})
	if err != nil {
		t.Fatal(err)
	}
	diskSys, err := NewSystem(Options{Graph: g, Servers: 4, Seed: 5, Sampling: scfg,
		Store: store.Config{Path: t.TempDir(), MemoryBudget: budget}})
	if err != nil {
		t.Fatal(err)
	}
	defer diskSys.Close()
	ds := diskSys.Store
	if seg := ds.SegmentBytes(); seg < 4*budget {
		t.Fatalf("segment of %d bytes is under 4x the %d-byte budget", seg, budget)
	}
	src := memSys.BatchSource(32, 5)
	for b := 0; b < 4; b++ {
		roots := src.Next()
		want, err := memSys.Pipeline.Sample(context.Background(), roots)
		if err != nil {
			t.Fatal(err)
		}
		got, err := diskSys.Pipeline.Sample(context.Background(), roots)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("disk-backed batch %d diverged from the in-memory system", b)
		}
		if r := ds.Resident(); r > budget {
			t.Fatalf("batch %d left %d bytes resident, over the %d-byte budget", b, r, budget)
		}
	}
	if ds.Stats().CacheMisses() == 0 {
		t.Fatal("no page faults: the disk store was never read")
	}
}

// gatewaySystem is testSystem with one gateway tenant holding key "k".
func gatewaySystem(t *testing.T, servers int) *System {
	t.Helper()
	g := graph.Generate(graph.GenConfig{NumNodes: 2000, AvgDegree: 8, AttrLen: 8, Seed: 3, PowerLaw: true})
	sys, err := NewSystem(Options{Graph: g, Servers: servers, Seed: 3,
		Sampling: sampler.Config{Fanouts: []int{4, 3}, NegativeRate: 2, Method: sampler.Streaming, FetchAttrs: true, Seed: 3},
		Gateway:  &gateway.Config{Tenants: []gateway.TenantConfig{{Name: "t", Key: "k"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
}

// sameBatch fails unless got carries want's roots, hops, negatives,
// attributes and cycle count.
func sameBatch(t *testing.T, name string, got, want *sampler.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Roots, want.Roots) || !reflect.DeepEqual(got.Hops, want.Hops) ||
		!reflect.DeepEqual(got.Negatives, want.Negatives) || !reflect.DeepEqual(got.Attrs, want.Attrs) ||
		got.Cycles != want.Cycles {
		t.Fatalf("%s: batch differs from the reference sampler's", name)
	}
}

// TestOneServingRoute: every System entry point samples through the
// executor. Sample, Pipeline.Sample and SampleAs return the reference
// sampler's bytes, each moves the executor's batch series by one, and only
// Sample places a batch on the dispatcher.
func TestOneServingRoute(t *testing.T) {
	sys := gatewaySystem(t, 4)
	ctx := context.Background()
	roots := sys.BatchSource(8, 4).Next()
	ref, err := sampler.New(sampler.LocalStore{G: sys.Graph}, sys.Sampling).Sample(ctx, roots)
	if err != nil {
		t.Fatal(err)
	}
	batches := func() float64 {
		v, _ := sys.Pipeline.Stats().StatsSnapshot().Get("batches")
		return v
	}
	placed := func() (n int64) {
		for _, c := range sys.Dispatcher.Counts() {
			n += c
		}
		return n
	}
	for _, route := range []struct {
		name   string
		run    func() (*sampler.Result, error)
		placed int64
	}{
		{"Pipeline.Sample", func() (*sampler.Result, error) { return sys.Pipeline.Sample(ctx, roots) }, 0},
		{"SampleAs", func() (*sampler.Result, error) { return sys.SampleAs(ctx, "k", roots) }, 0},
		{"Sample", func() (*sampler.Result, error) {
			res, st, err := sys.Sample(ctx, roots)
			if err == nil && st.SimTime <= 0 {
				t.Fatal("Sample returned no modeled timing")
			}
			return res, err
		}, 1},
	} {
		b0, p0 := batches(), placed()
		got, err := route.run()
		if err != nil {
			t.Fatalf("%s: %v", route.name, err)
		}
		sameBatch(t, route.name, got, ref)
		if b := batches(); b != b0+1 {
			t.Fatalf("%s moved the executor's batches by %v, want 1", route.name, b-b0)
		}
		if p := placed(); p != p0+route.placed {
			t.Fatalf("%s placed %d batches on the dispatcher, want %d", route.name, p-p0, route.placed)
		}
	}
}

// TestOneServingRouteTimingIsOfTheResult: on a one-engine system, Sample's
// modeled timing is exactly the engine's replay of the reference batch —
// timing is a function of the sampled result alone, wherever it came from.
func TestOneServingRouteTimingIsOfTheResult(t *testing.T) {
	sys := gatewaySystem(t, 1)
	ctx := context.Background()
	roots := sys.BatchSource(16, 5).Next()
	got, st, err := sys.Sample(ctx, roots)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sampler.New(sampler.LocalStore{G: sys.Graph}, sys.Sampling).Sample(ctx, roots)
	if err != nil {
		t.Fatal(err)
	}
	sameBatch(t, "Sample", got, ref)
	if want := sys.Engines[0].RunBatch(ref); st != want {
		t.Fatalf("Sample timed the batch as %+v, the engine times the reference as %+v", st, want)
	}
}

// TestOneServingRouteOneTrace: a traced gateway batch carries one trace ID
// from the tenant queue to the shard servers, so its gate wait, executor
// batch and fetches, and every rpc, wire and server span under them are
// found under that one ID.
func TestOneServingRouteOneTrace(t *testing.T) {
	sys := gatewaySystem(t, 4)
	if _, err := sys.SampleAs(context.Background(), "k", sys.BatchSource(8, 6).Next()); err != nil {
		t.Fatal(err)
	}
	id, _, ok := sys.Obs.LastTrace()
	if !ok {
		t.Fatal("no trace in the span log")
	}
	hops := map[string]bool{}
	for _, sp := range sys.Obs.TraceSpans(id) {
		hops[sp.Hop] = true
	}
	for _, hop := range []string{obs.HopGateWait, obs.HopBatch, obs.HopPipeFetch, obs.HopRPC, obs.HopWire, obs.HopServer} {
		if !hops[hop] {
			t.Fatalf("trace %v has no %q span; hops under it: %v", id, hop, hops)
		}
	}
}
