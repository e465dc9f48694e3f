package store

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"

	"lsdgnn/internal/cluster"
	"lsdgnn/internal/graph"
	"lsdgnn/internal/mem"
	"lsdgnn/internal/mof"
	"lsdgnn/internal/sampler"
)

func testGraph(t testing.TB, materialize bool) *graph.Graph {
	t.Helper()
	return graph.Generate(graph.GenConfig{
		NumNodes: 500, AvgDegree: 8, AttrLen: 16, Seed: 42,
		PowerLaw: true, Materialize: materialize,
	})
}

func mustCreate(t testing.TB, g *graph.Graph, opts ...Option) (string, *DiskStore) {
	t.Helper()
	dir := t.TempDir()
	if err := Create(dir, g, opts...); err != nil {
		t.Fatalf("Create: %v", err)
	}
	s, err := Open(dir, opts...)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return dir, s
}

// assertGraphParity compares the store's full scalar read surface against
// the reference graph.
func assertGraphParity(t *testing.T, s *DiskStore, g *graph.Graph) {
	t.Helper()
	if s.NumNodes() != g.NumNodes() || s.AttrLen() != g.AttrLen() {
		t.Fatalf("shape: store %d/%d, graph %d/%d", s.NumNodes(), s.AttrLen(), g.NumNodes(), g.AttrLen())
	}
	var abuf []float32
	for v := int64(0); v < g.NumNodes(); v++ {
		id := graph.NodeID(v)
		if got, want := s.Neighbors(id), g.Neighbors(id); !equalIDs(got, want) {
			t.Fatalf("node %d neighbors: got %v want %v", v, got, want)
		}
		abuf = abuf[:0]
		got := s.Attr(abuf, id)
		want := g.Attr(nil, id)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d attrs: got %v want %v", v, got, want)
		}
	}
}

func equalIDs(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestDiskStoreRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		mat  bool
		opts []Option
	}{
		{"procedural-mmap", false, nil},
		{"materialized-mmap", true, nil},
		{"procedural-budgeted", false, []Option{WithMemoryBudget(64 << 10)}},
		{"materialized-budgeted", true, []Option{WithMemoryBudget(64 << 10)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := testGraph(t, tc.mat)
			_, s := mustCreate(t, g, tc.opts...)
			if s.NumEdges() != g.NumEdges() {
				t.Fatalf("edges: store %d graph %d", s.NumEdges(), g.NumEdges())
			}
			assertGraphParity(t, s, g)
			if err := s.Verify(); err != nil {
				t.Fatalf("Verify: %v", err)
			}
		})
	}
}

// TestDiskStoreSamplingParity is the interchangeability contract: the same
// sampler over LocalStore and DiskStore must produce byte-identical
// results for the same seed, budgeted or mmap'd.
func TestDiskStoreSamplingParity(t *testing.T) {
	for _, mat := range []bool{false, true} {
		for _, budget := range []int64{0, 48 << 10} {
			g := testGraph(t, mat)
			var opts []Option
			if budget > 0 {
				opts = append(opts, WithMemoryBudget(budget))
			}
			_, s := mustCreate(t, g, opts...)
			cfg := sampler.Config{Fanouts: []int{4, 3}, NegativeRate: 2, FetchAttrs: true, Seed: 7}
			roots := []graph.NodeID{1, 17, 333, 499, 0}
			want := sampler.New(sampler.LocalStore{G: g}, cfg).SampleBatch(roots)
			got := sampler.New(s, cfg).SampleBatch(roots)
			if !reflect.DeepEqual(want.Hops, got.Hops) ||
				!reflect.DeepEqual(want.Negatives, got.Negatives) ||
				!reflect.DeepEqual(want.Attrs, got.Attrs) {
				t.Fatalf("mat=%v budget=%d: results diverge", mat, budget)
			}
			got.Release()
			want.Release()
			s.Close()
		}
	}
}

// TestDiskStoreDynamicParity mirrors the same ingest stream into a
// graph.Dynamic and a DiskStore and requires identical reads before and
// after both sides compact.
func TestDiskStoreDynamicParity(t *testing.T) {
	g := testGraph(t, false)
	d := graph.NewDynamic(g)
	_, s := mustCreate(t, g)
	edges := [][2]graph.NodeID{{1, 2}, {1, 3}, {1, 2}, {499, 0}, {0, 499}, {250, 250}, {250, 10}}
	for _, e := range edges {
		if err := d.AddEdge(e[0], e[1]); err != nil {
			t.Fatalf("dynamic AddEdge: %v", err)
		}
		if err := s.AddEdge(e[0], e[1]); err != nil {
			t.Fatalf("store AddEdge: %v", err)
		}
	}
	if s.NumEdges() != d.NumEdges() || s.DeltaEdges() != d.DeltaEdges() {
		t.Fatalf("edge counts diverge: store %d/%d dynamic %d/%d",
			s.NumEdges(), s.DeltaEdges(), d.NumEdges(), d.DeltaEdges())
	}
	for v := int64(0); v < g.NumNodes(); v++ {
		if got, want := s.Neighbors(graph.NodeID(v)), d.Neighbors(graph.NodeID(v)); !equalIDs(got, want) {
			t.Fatalf("pre-compact node %d: got %v want %v", v, got, want)
		}
	}
	if err := d.Compact(); err != nil {
		t.Fatalf("dynamic Compact: %v", err)
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("store Compact: %v", err)
	}
	if s.Generation() != 2 {
		t.Fatalf("generation after compact: %d", s.Generation())
	}
	if s.DeltaEdges() != 0 {
		t.Fatalf("delta edges after compact: %d", s.DeltaEdges())
	}
	for v := int64(0); v < g.NumNodes(); v++ {
		if got, want := s.Neighbors(graph.NodeID(v)), d.Neighbors(graph.NodeID(v)); !equalIDs(got, want) {
			t.Fatalf("post-compact node %d: got %v want %v", v, got, want)
		}
	}
}

// TestWALCrashRecovery simulates a crash mid-append: acked mutations plus
// a torn trailing record on disk. Reopen must replay the clean prefix,
// truncate the tear, and keep serving writes.
func TestWALCrashRecovery(t *testing.T) {
	g := testGraph(t, false)
	dir, s := mustCreate(t, g, WithSyncMode(SyncAlways))
	attr := make([]float32, g.AttrLen())
	for i := range attr {
		attr[i] = float32(i) * 0.5
	}
	for i := 0; i < 20; i++ {
		if err := s.AddEdge(graph.NodeID(i), graph.NodeID(i+100)); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
	}
	if err := s.SetAttr(42, attr); err != nil {
		t.Fatalf("SetAttr: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Tear the tail: a record header promising a payload that never hit
	// the disk — exactly what a kill mid-append leaves behind.
	walPath := filepath.Join(dir, walName(1))
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	var torn [12]byte
	binary.LittleEndian.PutUint32(torn[:4], 17)
	binary.LittleEndian.PutUint32(torn[4:8], 0xdeadbeef)
	if _, err := f.Write(torn[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}

	st := &Stats{}
	s2, err := Open(dir, WithStats(st))
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer s2.Close()
	if got := st.WALReplayed(); got != 21 {
		t.Fatalf("replayed %d records, want 21", got)
	}
	after, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size()-int64(len(torn)) {
		t.Fatalf("torn tail not truncated: %d -> %d", before.Size(), after.Size())
	}
	if got := s2.Neighbors(5); !equalIDs(got, append(append([]graph.NodeID{}, g.Neighbors(5)...), 105)) {
		t.Fatalf("replayed adjacency wrong: %v", got)
	}
	if got := s2.Attr(nil, 42); !reflect.DeepEqual(got, attr) {
		t.Fatalf("replayed attr wrong: %v", got)
	}
	// The recovered store must still accept appends.
	if err := s2.AddEdge(7, 8); err != nil {
		t.Fatalf("AddEdge after recovery: %v", err)
	}
}

// TestCrashMidCompaction covers the two crash windows of the freeze
// protocol: an orphaned next-generation WAL with no CURRENT bump, and a
// committed CURRENT with stale previous-generation files left behind.
func TestCrashMidCompaction(t *testing.T) {
	g := testGraph(t, false)
	dir, s := mustCreate(t, g)
	for i := 0; i < 10; i++ {
		if err := s.AddEdge(graph.NodeID(i), graph.NodeID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Window 1: wal-2 exists (live mutations after a freeze), CURRENT
	// still says 1. The orphan's records must be absorbed into wal-1.
	orphan := filepath.Join(dir, walName(2))
	w, err := openWAL(orphan, SyncAlways, &Stats{}, func(graph.NodeID, graph.NodeID) {}, func(graph.NodeID, []float32) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.appendEdge(400, 401); err != nil {
		t.Fatal(err)
	}
	w.Close()
	st := &Stats{}
	s2, err := Open(dir, WithStats(st))
	if err != nil {
		t.Fatalf("reopen with orphan WAL: %v", err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan WAL not removed: %v", err)
	}
	if got := st.WALReplayed(); got != 11 {
		t.Fatalf("replayed %d records, want 11", got)
	}
	want := append(append([]graph.NodeID{}, g.Neighbors(400)...), 401)
	if got := s2.Neighbors(400); !equalIDs(got, want) {
		t.Fatalf("orphan edge lost: %v want %v", got, want)
	}

	// Window 2: compact for real, then fake the stale leftovers a crash
	// between CURRENT commit and cleanup would leave.
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, walName(1))
	if err := os.WriteFile(stale, []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen with stale files: %v", err)
	}
	defer s3.Close()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale WAL not cleaned: %v", err)
	}
	if got := s3.Neighbors(400); !equalIDs(got, want) {
		t.Fatalf("post-compact adjacency wrong: %v want %v", got, want)
	}
}

// TestCompactionPersists proves the full durability chain: ingest, attr
// overrides, compact, reopen cold — everything survives in generation 2.
func TestCompactionPersists(t *testing.T) {
	g := testGraph(t, false)
	dir, s := mustCreate(t, g)
	attr := make([]float32, g.AttrLen())
	attr[0] = 3.25
	if err := s.AddEdge(9, 90); err != nil {
		t.Fatal(err)
	}
	if err := s.SetAttr(9, attr); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Generation() != 2 {
		t.Fatalf("generation %d after reopen", s2.Generation())
	}
	found := false
	for _, u := range s2.Neighbors(9) {
		if u == 90 {
			found = true
		}
	}
	if !found {
		t.Fatal("compacted edge lost across reopen")
	}
	if got := s2.Attr(nil, 9); !reflect.DeepEqual(got, attr) {
		t.Fatalf("compacted attr lost: %v", got)
	}
	// The attr override forced materialization of a procedural base; the
	// other nodes' attrs must still match the procedural function.
	if got, want := s2.Attr(nil, 10), g.Attr(nil, 10); !reflect.DeepEqual(got, want) {
		t.Fatalf("node 10 attrs changed by materialization: %v want %v", got, want)
	}
}

func TestOpenErrors(t *testing.T) {
	g := testGraph(t, false)

	t.Run("create-over-existing", func(t *testing.T) {
		dir, _ := mustCreate(t, g)
		if err := Create(dir, g); !errors.Is(err, ErrExists) {
			t.Fatalf("want ErrExists, got %v", err)
		}
	})
	t.Run("budget-below-page", func(t *testing.T) {
		dir, s := mustCreate(t, g)
		s.Close()
		if _, err := Open(dir, WithMemoryBudget(PageSize-1)); !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("want ErrBudgetExceeded, got %v", err)
		}
	})
	t.Run("corrupt-header", func(t *testing.T) {
		dir, s := mustCreate(t, g)
		s.Close()
		path := filepath.Join(dir, segName(1))
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[20] ^= 0xff
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("want ErrCorrupt, got %v", err)
		}
	})
	t.Run("corrupt-current", func(t *testing.T) {
		dir, s := mustCreate(t, g)
		s.Close()
		if err := os.WriteFile(filepath.Join(dir, currentName), []byte("bogus\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("want ErrCorrupt, got %v", err)
		}
	})
	t.Run("missing-store", func(t *testing.T) {
		if _, err := Open(t.TempDir()); err == nil {
			t.Fatal("want error opening empty dir")
		}
	})
}

// TestVerifyDetectsBitRot flips one byte in the edge section — past the
// header CRC's reach — and requires the deep check to catch it.
func TestVerifyDetectsBitRot(t *testing.T) {
	g := testGraph(t, true)
	dir, s := mustCreate(t, g)
	s.Close()
	path := filepath.Join(dir, segName(1))
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	off := int64(headerSize + (g.NumNodes()+1)*8 + 5)
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("open after bit rot (header intact): %v", err)
	}
	defer s2.Close()
	if err := s2.Verify(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Verify: want ErrCorrupt, got %v", err)
	}
}

// TestPageCacheBudget reads the whole graph through a budget a fraction
// of the segment size and requires residency to stay under it the whole
// time, with evictions doing the enforcement.
func TestPageCacheBudget(t *testing.T) {
	g := testGraph(t, true)
	budget := int64(16 << 10)
	st := &Stats{}
	_, s := mustCreate(t, g, WithMemoryBudget(budget), WithStats(st))
	if st.segmentBytes.Value() <= float64(budget) {
		t.Fatalf("segment %v not larger than budget %d — test proves nothing", st.segmentBytes.Value(), budget)
	}
	ctx := context.Background()
	vs := make([]graph.NodeID, 0, g.NumNodes())
	for v := int64(0); v < g.NumNodes(); v++ {
		vs = append(vs, graph.NodeID(v))
	}
	dst := make([][]graph.NodeID, len(vs))
	attrs := make([]float32, len(vs)*g.AttrLen())
	for pass := 0; pass < 3; pass++ {
		if err := s.NeighborsBatch(ctx, dst, vs); err != nil {
			t.Fatalf("NeighborsBatch: %v", err)
		}
		if err := s.AttrsBatch(ctx, attrs, vs); err != nil {
			t.Fatalf("AttrsBatch: %v", err)
		}
		if r := s.Resident(); r > budget {
			t.Fatalf("resident %d exceeds budget %d", r, budget)
		}
	}
	if st.CacheMisses() == 0 || st.CacheHits() == 0 {
		t.Fatalf("cache never exercised: hits=%d misses=%d", st.CacheHits(), st.CacheMisses())
	}
	if st.cacheEvictions.Value() == 0 {
		t.Fatal("no evictions despite over-budget working set")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if r := s.Resident(); r != 0 {
		t.Fatalf("resident %d after Close", r)
	}
}

// TestClosedStoreFailsServerRequests: a closed store must fail the
// request — neighbors or attributes — instead of answering it with empty
// adjacency and zero vectors. Both batch reads return the error, so each
// sub comes back rejected inside a served frame.
func TestClosedStoreFailsServerRequests(t *testing.T) {
	g := testGraph(t, true)
	_, s := mustCreate(t, g, WithMemoryBudget(16<<10))
	srv := cluster.NewBackendServer(s, cluster.HashPartitioner{N: 1}, 0)
	ids := []graph.NodeID{1, 2, 3}
	// One sub per frame, as clients send them.
	var codec mof.VecCodec
	frames := map[string][]byte{}
	for name, sub := range map[string]cluster.PackedSubRequest{
		"neighbors": {Op: cluster.OpGetNeighbors, Neighbors: cluster.NeighborsRequest{IDs: ids}},
		"attrs":     {Op: cluster.OpGetAttrs, Attrs: cluster.AttrsRequest{IDs: ids}},
	} {
		frame, err := cluster.EncodePackedRequest([]cluster.PackedSubRequest{sub}, true, &codec)
		if err != nil {
			t.Fatal(err)
		}
		frames[name] = frame
	}
	for name, frame := range frames {
		if _, err := srv.Handle(context.Background(), frame); err != nil {
			t.Fatalf("open store: %s request failed: %v", name, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for name, frame := range frames {
		reply, err := srv.Handle(context.Background(), frame)
		if err != nil {
			t.Fatalf("closed store: %s frame failed (%v), want a served frame", name, err)
		}
		subs, err := cluster.DecodePackedResponse(reply, 0, &codec)
		if err != nil {
			t.Fatalf("closed store: %s reply: %v", name, err)
		}
		var se *cluster.ServerError
		if err := subs[0].Err; !errors.As(err, &se) || !strings.Contains(err.Error(), ErrClosed.Error()) {
			t.Fatalf("closed store: %s sub returned %v, want a rejection naming %q", name, err, ErrClosed)
		}
	}
}

// TestServerNeighborSubAllocationsFlat: a shard server answers a
// neighbours sub over a budgeted store with one store call per chunk, so
// a 256-ID sub allocates what a 16-ID sub does, up to a constant — not one
// list per ID — and still answers every ID with its adjacency.
func TestServerNeighborSubAllocationsFlat(t *testing.T) {
	g := testGraph(t, true)
	_, s := mustCreate(t, g, WithMemoryBudget(4*PageSize))
	srv := cluster.NewBackendServer(s, cluster.HashPartitioner{N: 1}, 0)
	var codec mof.VecCodec
	ctx := context.Background()
	handle := func(frame []byte) []byte {
		reply, err := srv.Handle(ctx, frame)
		if err != nil {
			t.Fatal(err)
		}
		return reply
	}
	// No collection while counting: a GC would empty the pools and charge
	// their refill to the request.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := map[int]float64{}
	for _, n := range []int{16, 256} {
		ids := make([]graph.NodeID, n)
		for i := range ids {
			ids[i] = graph.NodeID(i * 7 % int(g.NumNodes()))
		}
		sub := cluster.PackedSubRequest{Op: cluster.OpGetNeighbors, Neighbors: cluster.NeighborsRequest{IDs: ids}}
		frame, err := cluster.EncodePackedRequest([]cluster.PackedSubRequest{sub}, true, &codec)
		if err != nil {
			t.Fatal(err)
		}
		subs, err := cluster.DecodePackedResponse(handle(frame), 0, &codec)
		if err != nil || subs[0].Err != nil {
			t.Fatalf("%d-ID sub: %v, %v", n, err, subs[0].Err)
		}
		for i, v := range ids {
			if got := subs[0].Neighbors.Lists[i]; !equalIDs(got, g.Neighbors(v)) {
				t.Fatalf("%d-ID sub, node %d: %v, want %v", n, v, got, g.Neighbors(v))
			}
		}
		allocs[n] = testing.AllocsPerRun(50, func() { mem.Bytes.Recycle(handle(frame)) })
	}
	// Pooled buffers a request takes: reply frame, list, offset, degree
	// and flat-ID scratch, each a buffer and a box when -race drops it.
	if most := allocs[16] + 2 + 5*raceSlack; allocs[256] > most {
		t.Fatalf("256-ID sub: %.0f allocations, 16-ID sub: %.0f; want at most %.0f", allocs[256], allocs[16], most)
	}
	t.Logf("allocations per Handle: 16 IDs %.0f, 256 IDs %.0f", allocs[16], allocs[256])
}

// TestAttrsBatchMatchesAttr: the batch read gives, row by row, what the
// scalar Attr gives — IDs outside the segment as zeros, a live override
// ahead of a frozen one ahead of the segment — on procedural and
// materialized segments alike.
func TestAttrsBatchMatchesAttr(t *testing.T) {
	for _, materialize := range []bool{false, true} {
		g := testGraph(t, materialize)
		_, s := mustCreate(t, g, WithMemoryBudget(16<<10))
		al := g.AttrLen()
		live, frozen := make([]float32, al), make([]float32, al)
		for i := range live {
			live[i], frozen[i] = float32(i)+0.5, -float32(i)-0.25
		}
		if err := s.SetAttr(7, live); err != nil {
			t.Fatal(err)
		}
		// A failed compaction leaves its frozen memtable serving reads.
		s.mu.Lock()
		s.frozenAttrs = map[graph.NodeID][]float32{7: frozen, 11: frozen}
		s.mu.Unlock()
		vs := []graph.NodeID{0, 7, 11, 499, 500, 1 << 63, 3, 5, 7, 250, 11}
		var want []float32
		for _, v := range vs {
			want = s.Attr(want, v)
		}
		got := make([]float32, len(vs)*al)
		for i := range got {
			got[i] = float32(math.NaN()) // a dirty buffer: every element must be written
		}
		if err := s.AttrsBatch(context.Background(), got, vs); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("materialize=%v: AttrsBatch %v, want %v", materialize, got, want)
		}
		if !reflect.DeepEqual(got[al:2*al], live) || !reflect.DeepEqual(got[2*al:3*al], frozen) {
			t.Fatalf("materialize=%v: overrides not applied live-first", materialize)
		}
		s.Close()
	}
}

// TestFromConfig exercises the facade's one entry point: it bulk-loads on
// first use and reopens thereafter, and without a path it opens nothing.
func TestFromConfig(t *testing.T) {
	g := testGraph(t, false)
	if _, err := FromConfig(Config{}, g); err == nil {
		t.Fatal("opened a store without a path")
	}
	dir := t.TempDir()
	ds, err := FromConfig(Config{Path: dir}, g)
	if err != nil {
		t.Fatalf("disk first open (bulk load): %v", err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	// Second open: store exists, no graph needed.
	ds2, err := FromConfig(Config{Path: dir}, nil)
	if err != nil {
		t.Fatalf("disk reopen: %v", err)
	}
	defer ds2.Close()
	if ds2.NumNodes() != g.NumNodes() {
		t.Fatal("disk backend shape mismatch")
	}
}
