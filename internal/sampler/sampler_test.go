package sampler

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"lsdgnn/internal/graph"
)

func candidateList(n int) []graph.NodeID {
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = graph.NodeID(i)
	}
	return out
}

func TestSampleNeighborsSmallN(t *testing.T) {
	rng := NewRand(1)
	for _, m := range []Method{Reservoir, Streaming} {
		got, _ := SampleNeighbors(nil, candidateList(3), 10, m, &rng)
		if len(got) != 3 {
			t.Fatalf("%v: n<k should return all: %v", m, got)
		}
		got, _ = SampleNeighbors(nil, nil, 10, m, &rng)
		if len(got) != 0 {
			t.Fatalf("%v: empty candidates returned %v", m, got)
		}
		got, _ = SampleNeighbors(nil, candidateList(5), 0, m, &rng)
		if len(got) != 0 {
			t.Fatalf("%v: k=0 returned %v", m, got)
		}
	}
}

func TestSampleNeighborsExactK(t *testing.T) {
	rng := NewRand(2)
	for _, m := range []Method{Reservoir, Streaming} {
		got, _ := SampleNeighbors(nil, candidateList(100), 10, m, &rng)
		if len(got) != 10 {
			t.Fatalf("%v: got %d samples", m, len(got))
		}
		seen := map[graph.NodeID]bool{}
		for _, v := range got {
			if int(v) >= 100 {
				t.Fatalf("%v: sample %d not a candidate", m, v)
			}
			if m == Reservoir && seen[v] {
				t.Fatalf("reservoir sampled %d twice (must be without replacement)", v)
			}
			seen[v] = true
		}
	}
}

func TestStreamingGroupStructure(t *testing.T) {
	// Streaming picks exactly one element from each of K contiguous
	// groups, so sample i lies in group i's index range.
	rng := NewRand(3)
	n, k := 100, 10
	got, _ := SampleNeighbors(nil, candidateList(n), k, Streaming, &rng)
	for i, v := range got {
		lo, hi := i*(n/k), (i+1)*(n/k)
		if int(v) < lo || int(v) >= hi {
			t.Fatalf("sample %d = %d outside its group [%d,%d)", i, v, lo, hi)
		}
	}
}

func TestStreamingUnevenGroups(t *testing.T) {
	// N not divisible by K: remainder spreads over the first groups and
	// every group still contributes exactly one sample.
	rng := NewRand(4)
	got, _ := SampleNeighbors(nil, candidateList(23), 5, Streaming, &rng)
	if len(got) != 5 {
		t.Fatalf("got %d samples", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("streaming samples not strictly increasing: %v", got)
		}
	}
}

func TestCycleCounts(t *testing.T) {
	// Tech-2's claim: reservoir needs N+K steps, streaming N.
	rng := NewRand(5)
	_, rc := SampleNeighbors(nil, candidateList(1000), 10, Reservoir, &rng)
	_, sc := SampleNeighbors(nil, candidateList(1000), 10, Streaming, &rng)
	if rc != 1010 {
		t.Fatalf("reservoir cycles = %d, want 1010", rc)
	}
	if sc != 1000 {
		t.Fatalf("streaming cycles = %d, want 1000", sc)
	}
}

// TestSamplingUniformity: both methods include every candidate with
// probability k/n (chi-square at p = 0.001; see checkInclusion).
func TestSamplingUniformity(t *testing.T) {
	for _, m := range []Method{Reservoir, Streaming} {
		checkInclusion(t, m, 60, 6, func(dst, candidates []graph.NodeID, k int, rng *Rand) []graph.NodeID {
			dst, _ = SampleNeighbors(dst, candidates, k, m, rng)
			return dst
		})
	}
}

func TestUnknownMethodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown method did not panic")
		}
	}()
	SampleNeighbors(nil, candidateList(10), 2, Method(99), &Rand{})
}

func TestMethodString(t *testing.T) {
	if Reservoir.String() != "reservoir" || Streaming.String() != "streaming" {
		t.Fatal("method names wrong")
	}
	if Method(42).String() == "" {
		t.Fatal("unknown method should still print")
	}
}

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return graph.Generate(graph.GenConfig{NumNodes: 2000, AvgDegree: 8, AttrLen: 4, Seed: 1, PowerLaw: true})
}

func TestSampleBatchShapes(t *testing.T) {
	g := testGraph(t)
	s := New(LocalStore{G: g}, Config{
		Fanouts: []int{5, 3}, NegativeRate: 2, Method: Streaming, FetchAttrs: true, Seed: 1,
	})
	roots := []graph.NodeID{1, 2, 3, 4}
	res := s.SampleBatch(roots)
	if len(res.Hops) != 2 {
		t.Fatalf("hops = %d", len(res.Hops))
	}
	if len(res.Hops[0]) != 4*5 || len(res.Hops[1]) != 4*5*3 {
		t.Fatalf("hop sizes = %d, %d", len(res.Hops[0]), len(res.Hops[1]))
	}
	if len(res.Negatives) != 4*2 {
		t.Fatalf("negatives = %d", len(res.Negatives))
	}
	wantAttrs := (4 + 20 + 60 + 8) * 4
	if len(res.Attrs) != wantAttrs {
		t.Fatalf("attrs = %d floats, want %d", len(res.Attrs), wantAttrs)
	}
	if res.NodesFetched(4) != 4+20+60+8 {
		t.Fatalf("NodesFetched = %d", res.NodesFetched(4))
	}
	if res.Cycles == 0 {
		t.Fatal("cycles not accounted")
	}
}

func TestSampleBatchFanoutAlignment(t *testing.T) {
	// Hop h+1's entries [i*f, (i+1)*f) must be neighbors (or the padding
	// parent) of hop h's entry i.
	g := testGraph(t)
	s := New(LocalStore{G: g}, Config{Fanouts: []int{4, 4}, Method: Reservoir, Seed: 2})
	roots := []graph.NodeID{10, 20, 30}
	res := s.SampleBatch(roots)
	checkLevel := func(parents, children []graph.NodeID, f int) {
		for i, p := range parents {
			nbrs := map[graph.NodeID]bool{p: true} // parent allowed as padding
			for _, u := range g.Neighbors(p) {
				nbrs[u] = true
			}
			for _, c := range children[i*f : (i+1)*f] {
				if !nbrs[c] {
					t.Fatalf("child %d of parent %d is not a neighbor or padding", c, p)
				}
			}
		}
	}
	checkLevel(roots, res.Hops[0], 4)
	checkLevel(res.Hops[0], res.Hops[1], 4)
}

func TestSampleBatchPadding(t *testing.T) {
	// A node with no out-edges pads the full fanout with itself.
	b := graph.NewBuilder(3, 2)
	_ = b.AddEdge(0, 1) // node 2 is a sink
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := New(LocalStore{G: g}, Config{Fanouts: []int{3}, Method: Streaming, Seed: 3})
	res := s.SampleBatch([]graph.NodeID{2})
	for _, v := range res.Hops[0] {
		if v != 2 {
			t.Fatalf("sink padding = %v, want all 2s", res.Hops[0])
		}
	}
}

func TestSampleBatchDeterministicPerSeed(t *testing.T) {
	g := testGraph(t)
	run := func() *Result {
		s := New(LocalStore{G: g}, Config{Fanouts: []int{5, 5}, NegativeRate: 3, Method: Streaming, Seed: 7, FetchAttrs: true})
		return s.SampleBatch([]graph.NodeID{5, 6, 7})
	}
	a, b := run(), run()
	for h := range a.Hops {
		for i := range a.Hops[h] {
			if a.Hops[h][i] != b.Hops[h][i] {
				t.Fatal("same seed produced different samples")
			}
		}
	}
	for i := range a.Negatives {
		if a.Negatives[i] != b.Negatives[i] {
			t.Fatal("same seed produced different negatives")
		}
	}
}

func TestNegativesInRange(t *testing.T) {
	g := testGraph(t)
	s := New(LocalStore{G: g}, Config{Fanouts: []int{2}, NegativeRate: 10, Method: Streaming, Seed: 4})
	res := s.SampleBatch([]graph.NodeID{0, 1})
	for _, v := range res.Negatives {
		if !g.HasNode(v) {
			t.Fatalf("negative %d out of range", v)
		}
	}
}

func TestAttrsMatchGraph(t *testing.T) {
	g := testGraph(t)
	s := New(LocalStore{G: g}, Config{Fanouts: []int{2}, Method: Streaming, FetchAttrs: true, Seed: 5})
	roots := []graph.NodeID{42}
	res := s.SampleBatch(roots)
	want := g.Attr(nil, 42)
	for i := range want {
		if res.Attrs[i] != want[i] {
			t.Fatal("root attrs do not match graph")
		}
	}
	// First hop node's attrs occupy the next slot.
	first := res.Hops[0][0]
	want = g.Attr(nil, first)
	for i := range want {
		if res.Attrs[4+i] != want[i] {
			t.Fatal("hop-1 attrs do not match graph")
		}
	}
}

func TestNoFanoutsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty fanouts did not panic")
		}
	}()
	New(LocalStore{G: testGraph(t)}, Config{})
}

func TestLocalStoreAdapter(t *testing.T) {
	g := testGraph(t)
	var st Store = LocalStore{G: g}
	if st.NumNodes() != g.NumNodes() || st.AttrLen() != g.AttrLen() {
		t.Fatal("adapter metadata wrong")
	}
	lists := make([][]graph.NodeID, 1)
	if err := st.NeighborsBatch(context.Background(), lists, []graph.NodeID{1}); err != nil {
		t.Fatalf("NeighborsBatch: %v", err)
	}
	if len(lists[0]) != g.Degree(1) {
		t.Fatal("adapter neighbors wrong")
	}
	attrs := make([]float32, g.AttrLen())
	if err := st.AttrsBatch(context.Background(), attrs, []graph.NodeID{1}); err != nil {
		t.Fatalf("AttrsBatch: %v", err)
	}
	want := g.Attr(nil, 1)
	for i := range want {
		if attrs[i] != want[i] {
			t.Fatal("adapter attrs do not match graph")
		}
	}
}

// hopFailStore fails its NeighborsBatch call number failAt (1-based) with
// err, after nil-ing the lists of the vertices err claims lost.
type hopFailStore struct {
	LocalStore
	failAt, calls int
	err           error
}

func (s *hopFailStore) NeighborsBatch(ctx context.Context, dst [][]graph.NodeID, vs []graph.NodeID) error {
	if err := s.LocalStore.NeighborsBatch(ctx, dst, vs); err != nil {
		return err
	}
	if s.calls++; s.calls != s.failAt {
		return nil
	}
	if l, ok := s.err.(interface{ Lost(graph.NodeID) bool }); ok {
		for i, v := range vs {
			if l.Lost(v) {
				dst[i] = nil
			}
		}
	}
	return s.err
}

type lostOne graph.NodeID

func (l lostOne) Error() string            { return "one vertex lost" }
func (l lostOne) Lost(v graph.NodeID) bool { return v == graph.NodeID(l) }

// TestPartialKHopDegradeRule pins Store's degrade contract as KHop applies
// it: an error that says what it lost degrades exactly the roots that
// asked for it, any other error — or a dead context — fails the call.
func TestPartialKHopDegradeRule(t *testing.T) {
	g := testGraph(t)
	cfg := Config{Fanouts: []int{3, 2}, Method: Streaming, FetchAttrs: true, Seed: 5}
	roots := []graph.NodeID{11, 12, 13, 14}
	ref := New(LocalStore{G: g}, cfg).SampleBatch(roots)

	// Lose a vertex root 2 first meets as a hop-1 sample, at the hop-2 fetch.
	victim := ref.Hops[0][2*3+1]
	res, err := KHop(context.Background(), &hopFailStore{LocalStore: LocalStore{G: g}, failAt: 2, err: lostOne(victim)}, cfg, roots)
	pe, ok := AsPartial(err)
	if !ok || res == nil {
		t.Fatalf("degrading error: result returned = %v, err = %v", res != nil, err)
	}
	var wantRoots []int
	for r := range roots {
		for _, v := range ref.Hops[0][r*3 : (r+1)*3] {
			if v == victim {
				wantRoots = append(wantRoots, r)
				break
			}
		}
	}
	var gotRoots []int
	for _, re := range pe.Roots {
		gotRoots = append(gotRoots, re.Index)
	}
	if !reflect.DeepEqual(gotRoots, wantRoots) || len(pe.Errs) != 1 || !errors.Is(err, lostOne(victim)) {
		t.Fatalf("degraded roots %v (want %v), store errors %v", gotRoots, wantRoots, pe.Errs)
	}
	for i, v := range ref.Hops[0] {
		// The victim pads with itself; every other subtree is exact.
		got, want := res.Hops[1][i*2:(i+1)*2], ref.Hops[1][i*2:(i+1)*2]
		if v == victim {
			want = []graph.NodeID{victim, victim}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("hop-2 children of %d = %v, want %v", v, got, want)
		}
	}

	// An error that does not say what it lost is not served as data.
	plain := errors.New("store closed")
	if res, err := KHop(context.Background(), &hopFailStore{LocalStore: LocalStore{G: g}, failAt: 1, err: plain}, cfg, roots); res != nil || err != plain {
		t.Fatalf("opaque store error: result returned = %v, err = %v", res != nil, err)
	}
	// A dead context wins over whatever the store said.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := KHop(ctx, &hopFailStore{LocalStore: LocalStore{G: g}, failAt: 1, err: lostOne(victim)}, cfg, roots); res != nil || err != context.Canceled {
		t.Fatalf("cancelled call: result returned = %v, err = %v", res != nil, err)
	}
	// The no-error convenience wrapper does not hand a failed call's nil
	// result to its caller.
	func() {
		defer func() {
			if r := recover(); r != plain {
				t.Fatalf("SampleBatch over a failing store recovered %v, want the store's error", r)
			}
		}()
		New(&hopFailStore{LocalStore: LocalStore{G: g}, failAt: 1, err: plain}, cfg).SampleBatch(roots)
	}()
}
