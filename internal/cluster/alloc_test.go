package cluster

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"runtime/debug"
	"strings"
	"testing"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/mem"
	"lsdgnn/internal/pipeline"
	"lsdgnn/internal/sampler"
)

// singleRootAllocCeiling bounds the allocations of one warm single-root
// sample over TCP, both shard servers' included: the seed_lat request in
// miniature. It makes five frames, and what it allocates is two per frame
// inside context.AfterFunc (the cancellation hook), one fresh ID vector
// per neighbours reply — the lists handed to the sampler keep their own
// backing — and the sampler.Result, 14 in all. One more allocation per
// frame, five per root, fails the test.
const singleRootAllocCeiling = 15

// TestSingleRootAllocCeiling: a one-root pipeline.Executor.Sample through a
// TCPTransport client to two loopback shard servers, pools warm and no
// collection while counting, allocates at most singleRootAllocCeiling times.
// A per-frame or per-call allocation put back on the serving path fails
// here, not only in the benchmark.
func TestSingleRootAllocCeiling(t *testing.T) {
	g := graph.Generate(graph.GenConfig{NumNodes: 4000, AvgDegree: 12, AttrLen: 64, Seed: 7, PowerLaw: true})
	tr, cleanup := startTCPCluster(t, g, 2)
	defer cleanup()
	cl, err := NewClient(tr, HashPartitioner{N: 2}, -1)
	if err != nil {
		t.Fatal(err)
	}
	exec := pipeline.New(cl, sampler.Config{Fanouts: []int{10, 10}, NegativeRate: 10, Method: sampler.Streaming, FetchAttrs: true, Seed: 1}, pipeline.Config{})
	roots := make([][]graph.NodeID, 16)
	for i := range roots {
		roots[i] = []graph.NodeID{graph.NodeID(i * 97)}
	}
	// A cancelable context, as a served request carries: every frame arms
	// the transport's cancellation hook.
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	k := 0
	sample := func() {
		res, err := exec.Sample(ctx, roots[k%len(roots)])
		k++
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}
	// No collection while counting: a GC would empty the pools and charge
	// their refill to the sample.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for range 2 * len(roots) {
		sample()
	}
	// Under -race sync.Pool drops a quarter of all Puts, and a root makes
	// some 70 pool round trips: the race build allows 20 raceSlacks.
	if got, most := testing.AllocsPerRun(200, sample), singleRootAllocCeiling+20*raceSlack; got > most {
		t.Fatalf("one single-root sample allocated %.1f times once warm, want at most %.0f", got, most)
	}
}

// TestServedRequestLogBuiltOnlyWhenEnabled: a served request logs at
// Debug, so under an Info-level logger — lsdgnn-server's default — Handle
// builds no log line and allocates no more than with no logger at all,
// while a Debug-level logger still gets the line.
func TestServedRequestLogBuiltOnlyWhenEnabled(t *testing.T) {
	srv := NewServer(testGraph(t), HashPartitioner{N: 1}, 0)
	req, err := EncodePackedRequest([]PackedSubRequest{{Op: OpGetNeighbors, Neighbors: NeighborsRequest{IDs: []graph.NodeID{1, 2, 3}}}}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	handle := func() {
		reply, err := srv.Handle(bg, req)
		if err != nil {
			t.Fatal(err)
		}
		mem.Bytes.Recycle(reply)
	}
	logTo := func(w io.Writer, level slog.Level) {
		srv.SetLogger(slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level})))
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	handle()
	bare := testing.AllocsPerRun(100, handle)
	var out bytes.Buffer
	logTo(&out, slog.LevelInfo)
	if logged := testing.AllocsPerRun(100, handle); logged > bare+raceSlack {
		t.Fatalf("Handle under an Info logger allocated %.0f times, %.0f with none", logged, bare)
	}
	if out.Len() != 0 {
		t.Fatalf("an Info logger got %q for a served request", out.String())
	}
	logTo(&out, slog.LevelDebug)
	handle()
	if !strings.Contains(out.String(), "request served") {
		t.Fatalf("a Debug logger got %q, want the served-request line", out.String())
	}
}
