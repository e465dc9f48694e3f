package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/sampler"
)

func TestPercentileNearestRankAndMinimumSamples(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(100 - i) // unsorted on purpose: 100..1
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {1, 1}} {
		got, err := percentile(vals, tc.p, 60)
		if err != nil || got != tc.want {
			t.Errorf("p%g = %v, %v; want %v", tc.p, got, err, tc.want)
		}
	}
	if vals[0] != 100 {
		t.Error("percentile reordered its input")
	}
	// 95*20/100 is 19.000000000000004 in floating point; the rank must
	// still be the 19th value, not the 20th.
	twenty := make([]float64, 20)
	for i := range twenty {
		twenty[i] = float64(i + 1)
	}
	if got, _ := percentile(twenty, 95, 1); got != 19 {
		t.Errorf("p95 of 1..20 = %v, want 19", got)
	}
	if _, err := percentile(vals[:59], 95, 60); err == nil {
		t.Error("59 samples passed a 60-sample minimum")
	}
	if _, err := percentile(nil, 50, 0); err == nil {
		t.Error("empty input produced a percentile")
	}
}

func TestMedianOverWindows(t *testing.T) {
	// One disturbed window must not move the reported value.
	windows := []float64{10, 11, 500, 9, 10}
	got, err := medianOverWindows(windows, func(v float64) (float64, error) { return v, nil })
	if err != nil || got != 10 {
		t.Errorf("median over windows = %v, %v; want 10", got, err)
	}
	if median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Error("even-length median is not the mean of the middle two")
	}
	boom := errors.New("too few samples")
	_, err = medianOverWindows(windows, func(v float64) (float64, error) {
		if v == 500 {
			return 0, boom
		}
		return v, nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("a failing window was swallowed: %v", err)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := interval{100, 200}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		// Two overlapping fetches cover [110,160): 50, not 30+40.
		{"overlapping", []interval{{110, 140}, {120, 160}}, 50},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"sticking out both ends", []interval{{50, 120}, {180, 250}}, 60},
		{"outside entirely", []interval{{0, 50}, {300, 400}}, 100},
		{"unsorted", []interval{{150, 160}, {110, 155}}, 50},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestIndexSpansSelfTimesByParent(t *testing.T) {
	spans := []span{
		{name: spanGateway, id: 1, req: 1, start: 0, end: 10e6},
		{name: spanPipeline, id: 2, parent: 1, req: 1, start: 1e6, end: 9e6},
		{name: spanFetch, id: 3, parent: 2, req: 1, start: 2e6, end: 6e6},
		{name: spanFetch, id: 4, parent: 2, req: 1, start: 4e6, end: 8e6},
	}
	ix := indexSpans(spans)
	if got := ix.selfMS(spanGateway); len(got) != 1 || got[0] != 2 {
		t.Errorf("gateway self = %v, want [2]", got)
	}
	if got := ix.selfMS(spanPipeline); len(got) != 1 || got[0] != 2 {
		t.Errorf("pipeline self = %v, want [2] (8 ms minus the 6 ms its fetches cover)", got)
	}
	if got := sum(ix.durationsMS(spanFetch)); got != 8 {
		t.Errorf("fetch durations sum to %v, want 8", got)
	}
}

// serialBackend serves one request at a time; the first one stalls.
type serialBackend struct {
	mu    sync.Mutex
	calls int
	stall time.Duration
}

func (b *serialBackend) sample(ctx context.Context, roots []graph.NodeID) (*sampler.Result, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.calls++
	if b.calls == 1 {
		time.Sleep(b.stall)
	} else {
		time.Sleep(time.Millisecond)
	}
	return &sampler.Result{Roots: roots}, nil
}

func TestOpenLoopChargesAStallToTheRequestsDueDuringIt(t *testing.T) {
	const stall = 200 * time.Millisecond
	backend := &serialBackend{stall: stall}
	rec := newRecorder()
	rec.setWindow(0)
	var stop atomic.Bool
	time.AfterFunc(2*stall, func() { stop.Store(true) })
	batches := [][]graph.NodeID{{1}}
	openLoop(context.Background(), backend.sample, batches, 200, rec, &stop)

	w := rec.wins[0]
	if w.failed != 0 || w.ok < 40 {
		t.Fatalf("ok %d failed %d; want about 80 requests and no failures", w.ok, w.failed)
	}
	// A closed loop would have sent nothing during the stall and seen one
	// slow request. The open loop kept sending every 5 ms, so the ~40
	// requests due inside the stall each waited for the rest of it.
	slow := 0
	for _, ms := range w.latMS {
		if ms >= 50 {
			slow++
		}
	}
	if slow < 20 {
		t.Errorf("%d of %d requests saw >= 50 ms; the stall was charged to too few", slow, len(w.latMS))
	}
	late, err := percentile(w.lateMS, 50, 1)
	if err != nil || late > 20 {
		t.Errorf("generator ran %v ms late at the median (%v); it must keep its schedule through a stall", late, err)
	}
}

func TestOpenLoopRefusesPastTheInflightCap(t *testing.T) {
	release := make(chan struct{})
	blocked := func(ctx context.Context, roots []graph.NodeID) (*sampler.Result, error) {
		<-release
		return &sampler.Result{Roots: roots}, nil
	}
	rec := newRecorder()
	rec.setWindow(0)
	var stop atomic.Bool
	time.AfterFunc(100*time.Millisecond, func() {
		stop.Store(true)
		close(release)
	})
	openLoop(context.Background(), blocked, [][]graph.NodeID{{1}}, 2000, rec, &stop)
	w := rec.wins[0]
	if w.ok != maxOpenInflight {
		t.Errorf("%d requests admitted, want the cap of %d", w.ok, maxOpenInflight)
	}
	if w.failed == 0 {
		t.Error("requests due past the in-flight cap were not counted as failed")
	}
}

func TestRecorderDropsCompletionsOutsideWindows(t *testing.T) {
	rec := newRecorder()
	rec.request(time.Millisecond, 0, 32, nil) // warm-up
	rec.setWindow(2)
	rec.request(2*time.Millisecond, 0, 32, nil)
	rec.request(0, 0, 32, errRefused)
	rec.write(3*time.Microsecond, nil)
	rec.setWindow(-1)
	rec.request(time.Millisecond, 0, 32, nil) // drain
	w := rec.wins[2]
	if w.ok != 2 || w.failed != 1 || w.roots != 32 || len(w.latMS) != 1 || w.latMS[0] != 2 || len(w.appendUS) != 1 {
		t.Errorf("window 2 = %+v", w)
	}
	if rec.firstErr != errRefused {
		t.Errorf("first failure = %v, want the refusal", rec.firstErr)
	}
	for i, o := range rec.wins {
		if i != 2 && o.ok+o.failed != 0 {
			t.Errorf("window %d recorded %d completions", i, o.ok+o.failed)
		}
	}
}

// echoTransport answers every frame with a fixed reply, through handler
// when one is set (standing in for the socket and the server behind it).
type echoTransport struct {
	reply   []byte
	handler *tracedHandler
}

func (e echoTransport) Call(ctx context.Context, server int, msg []byte) ([]byte, error) {
	if e.handler != nil {
		return e.handler.Handle(ctx, msg)
	}
	return e.reply, nil
}

type fixedHandler struct{ reply []byte }

func (f fixedHandler) Handle(ctx context.Context, msg []byte) ([]byte, error) { return f.reply, nil }

func TestCountingTransportCountsFrameBytes(t *testing.T) {
	ct := &countingTransport{inner: echoTransport{reply: make([]byte, 700)}}
	for i := 0; i < 3; i++ {
		resp, err := ct.Call(context.Background(), 0, make([]byte, 100))
		if err != nil || len(resp) != 700 {
			t.Fatalf("call %d: %d bytes, %v", i, len(resp), err)
		}
	}
	if ct.frames.Load() != 3 || ct.reqBytes.Load() != 300 || ct.respBytes.Load() != 2100 {
		t.Errorf("frames %d req %d resp %d; want 3, 300, 2100", ct.frames.Load(), ct.reqBytes.Load(), ct.respBytes.Load())
	}
}

func TestFrameSpanParentsTheHandleSpanAcrossTheSocket(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	h := &tracedHandler{inner: fixedHandler{reply: []byte("ok")}, t: tr, server: 1}
	ct := &countingTransport{inner: echoTransport{handler: h}, t: tr}
	if _, err := ct.Call(context.Background(), 1, []byte("frame body")); err != nil {
		t.Fatal(err)
	}
	spans := tr.snapshot()
	if len(spans) != 2 || spans[0].name != spanHandle || spans[1].name != spanFrame {
		t.Fatalf("spans = %+v", spans)
	}
	handle, frame := spans[0], spans[1]
	if handle.parent != frame.id || handle.req != frame.id || handle.server != 1 {
		t.Errorf("handle span %+v does not name frame %d as its parent", handle, frame.id)
	}
	if handle.start < frame.start || handle.end > frame.end {
		t.Errorf("handle [%d,%d] not inside frame [%d,%d]", handle.start, handle.end, frame.start, frame.end)
	}
	// With the tracer off the same path records nothing but still counts.
	tr.on.Store(false)
	if _, err := ct.Call(context.Background(), 1, []byte("frame body")); err != nil {
		t.Fatal(err)
	}
	if n := len(tr.snapshot()); n != 2 {
		t.Errorf("%d spans after an untraced call, want 2", n)
	}
	if ct.frames.Load() != 2 {
		t.Errorf("counted %d frames, want 2", ct.frames.Load())
	}
}

func TestWorseningFollowsTheMetricsDirection(t *testing.T) {
	lower := metricDef{better: "lower"}
	higher := metricDef{better: "higher"}
	if g := worsening(lower, 100, 110); g < 0.0999 || g > 0.1001 {
		t.Errorf("latency 100 -> 110 worsened by %v, want 0.10", g)
	}
	if g := worsening(higher, 100, 110); g > -0.0999 {
		t.Errorf("throughput 100 -> 110 worsened by %v, want -0.10", g)
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps the checked-in contract file and
// the harness's catalogue from drifting apart: same workloads, same metric
// names, units, directions and bounds, in the same order.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", file.Paths)
	}
	if window := time.Duration(file.RunSeconds) * time.Second / nWindows; window < minWindow {
		t.Errorf("run_seconds %d gives %v windows, below the %v minimum", file.RunSeconds, window, minWindow)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalogue", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := file.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: file has %q (%q), catalogue %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the catalogue", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: file has %+v, catalogue %+v", kind, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound) {
				t.Errorf("%s %s: bound in file %v, catalogue %v", kind, d.name, g.Bound, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: layer metrics carry no bound", kind, d.name)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, true)
	check("per_layer", file.PerLayer, perLayer, false)
}
