package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime/debug"
	"testing"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/mof"
	"lsdgnn/internal/sampler"
)

func TestPackedRequestRoundTrip(t *testing.T) {
	var c mof.VecCodec
	subs := []PackedSubRequest{
		{Op: OpGetNeighbors, Neighbors: NeighborsRequest{IDs: []graph.NodeID{10, 14, 18, 22}}},
		{Op: OpGetAttrs, Attrs: AttrsRequest{IDs: []graph.NodeID{3, 3, 900}}},
		{Op: OpGetNeighbors, Neighbors: NeighborsRequest{IDs: nil}},
	}
	for _, bdi := range []bool{false, true} {
		frame, err := EncodePackedRequest(subs, bdi, &c)
		if err != nil {
			t.Fatal(err)
		}
		h, body, err := ParseHeader(frame)
		if err != nil || h.Op != OpPacked || h.BDI != bdi {
			t.Fatalf("header %+v, err %v; want a packed frame with bdi %v", h, err, bdi)
		}
		got, err := DecodePackedRequest(body, bdi, &c)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(subs) {
			t.Fatalf("got %d subs, want %d", len(got), len(subs))
		}
		for i := range subs {
			if got[i].Op != subs[i].Op {
				t.Fatalf("sub %d op %#x want %#x", i, got[i].Op, subs[i].Op)
			}
			want := subs[i].Neighbors.IDs
			if subs[i].Op == OpGetAttrs {
				want = subs[i].Attrs.IDs
			}
			gotIDs := got[i].Neighbors.IDs
			if subs[i].Op == OpGetAttrs {
				gotIDs = got[i].Attrs.IDs
			}
			if len(gotIDs) != len(want) {
				t.Fatalf("sub %d: %d ids, want %d", i, len(gotIDs), len(want))
			}
			for j := range want {
				if gotIDs[j] != want[j] {
					t.Fatalf("sub %d id %d mismatch", i, j)
				}
			}
		}
	}
}

func TestPackedResponseRoundTrip(t *testing.T) {
	var c mof.VecCodec
	subs := []PackedSubResponse{
		{Op: OpGetNeighbors, Neighbors: NeighborsResponse{Lists: [][]graph.NodeID{
			{1, 2, 3}, {}, {42},
		}}},
		{Op: OpGetAttrs, Attrs: AttrsResponse{AttrLen: 2, Attrs: []float32{1.5, -2.25, 0, 99}}},
		{Err: &ServerError{Server: 3, Msg: "node 7 routed wrong"}},
		{Err: errors.New("transient")},
	}
	for _, bdi := range []bool{false, true} {
		frame := EncodePackedResponse(Header{BDI: bdi}, subs, &c)
		got, err := DecodePackedResponse(frame, 3, &c)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(subs) {
			t.Fatalf("got %d subs, want %d", len(got), len(subs))
		}
		if !reflect.DeepEqual(got[0].Neighbors.Lists, subs[0].Neighbors.Lists) {
			t.Fatalf("lists mismatch: %v", got[0].Neighbors.Lists)
		}
		if got[1].Attrs.AttrLen != 2 || !reflect.DeepEqual(got[1].Attrs.Attrs, subs[1].Attrs.Attrs) {
			t.Fatalf("attrs mismatch: %+v", got[1].Attrs)
		}
		var se *ServerError
		if !errors.As(got[2].Err, &se) || se.Server != 3 || se.Msg != "node 7 routed wrong" {
			t.Fatalf("rejection did not round-trip typed: %v", got[2].Err)
		}
		if got[3].Err == nil || errors.As(got[3].Err, &se) && got[3].Err == nil {
			t.Fatalf("plain error lost: %v", got[3].Err)
		}
	}
}

// TestPackedResponseEncodesInOneAllocation: the frame is sized for the
// worst case of the in-place BDI trial, so a reply whose float section
// loses the trial (random floats always do, overshooting the raw payload
// by 7 %) is still built in the one buffer — and ships raw, byte for byte.
func TestPackedResponseEncodesInOneAllocation(t *testing.T) {
	var c mof.VecCodec
	rng := rand.New(rand.NewSource(1))
	attrs := make([]float32, 2000*64)
	for i := range attrs {
		attrs[i] = rng.Float32()
	}
	subs := []PackedSubResponse{{Op: OpGetAttrs, Attrs: AttrsResponse{AttrLen: 64, Attrs: attrs}}}
	// No collection while counting: a GC would empty the scratch pools and
	// charge their refill to the encoder. Enough runs that the pool drops
	// the race detector injects (one Put in four) average out below one.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var frame []byte
	if n := testing.AllocsPerRun(100, func() { frame = EncodePackedResponse(Header{BDI: true}, subs, &c) }); n != 1 {
		t.Fatalf("encoding one attrs sub-response allocated %.0f times, want 1 (the frame)", n)
	}
	// header(2) + count(2) + len(4) + status, op(2) + attrLen(4) + section
	// header(9) + raw floats.
	if want := 23 + len(attrs)*4; len(frame) != want {
		t.Fatalf("frame is %d bytes, want %d (raw section)", len(frame), want)
	}
	got, err := DecodePackedResponse(frame, 0, &c)
	if err != nil || !reflect.DeepEqual(got[0].Attrs.Attrs, attrs) {
		t.Fatalf("one-allocation frame did not round-trip: %v", err)
	}
}

func TestPackedIDCompressionWins(t *testing.T) {
	var c mof.VecCodec
	ids := make([]graph.NodeID, 512)
	for i := range ids {
		ids[i] = graph.NodeID(50_000 + i*3)
	}
	sub := []PackedSubRequest{{Op: OpGetAttrs, Attrs: AttrsRequest{IDs: ids}}}
	plain, err := EncodePackedRequest(sub, false, &c)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := EncodePackedRequest(sub, true, &c)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) >= len(plain)/2 {
		t.Fatalf("clustered ID vector barely compressed: %d vs %d bytes", len(comp), len(plain))
	}
}

// TestPackedSampleMatchesPlain: a batch sampled through the client comes out
// bit-identical to the reference sampler over the local graph, and past the
// bootstrap meta fetch every frame the servers saw was an OpPacked frame
// carrying exactly one sub-request.
func TestPackedSampleMatchesPlain(t *testing.T) {
	g := testGraph(t)
	part := HashPartitioner{N: 4}
	cfg := sampler.Config{Fanouts: []int{4, 4}, NegativeRate: 4, Method: sampler.Streaming, FetchAttrs: true, Seed: 9}
	roots := []graph.NodeID{5, 9, 9, 140, 700, 700, 1301}

	servers := make([]*Server, 4)
	for i := range servers {
		servers[i] = NewServer(g, part, i)
	}
	cl, err := NewClientContext(bg, DirectTransport{Servers: servers}, part, -1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.SampleBatch(bg, roots, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sampler.New(sampler.LocalStore{G: g}, cfg).Sample(bg, roots)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("sampling over the wire diverged from the local reference")
	}
	var packedFrames int64
	for i, s := range servers {
		w := s.Wire()
		meta := int64(0)
		if i == 0 {
			meta = 1 // the bootstrap fetch
		}
		if other := w.frames.Load() - w.packed.Load(); other != meta {
			t.Fatalf("server %d saw %d frames that were not OpPacked, want %d", i, other, meta)
		}
		if w.packedSub.Load() != w.packed.Load() {
			t.Fatalf("server %d: packed_requests %d != packed_frames %d", i, w.packedSub.Load(), w.packed.Load())
		}
		if got, _ := w.StatsSnapshot().Get("bytes_total"); got <= 0 && w.frames.Load() > 0 {
			t.Fatal("wire bytes not counted")
		}
		packedFrames += w.packed.Load()
	}
	if packedFrames == 0 || packedFrames != cl.Pack.Frames() {
		t.Fatalf("servers saw %d packed frames, client sent %d", packedFrames, cl.Pack.Frames())
	}
}

// TestPackedSubRejectionIsolated: one bad node ID inside a multi-sub frame
// fails only its own sub-request, typed as *ServerError, while its
// neighbours in the frame still return data.
func TestPackedSubRejectionIsolated(t *testing.T) {
	g := testGraph(t)
	part := HashPartitioner{N: 2}
	srv := NewServer(g, part, 0)
	var owned []graph.NodeID
	for v := graph.NodeID(0); len(owned) < 2; v++ {
		if part.Owner(v) == 0 {
			owned = append(owned, v)
		}
	}
	var c mof.VecCodec
	frame, err := EncodePackedRequest([]PackedSubRequest{
		{Op: OpGetNeighbors, Neighbors: NeighborsRequest{IDs: owned}},
		{Op: OpGetAttrs, Attrs: AttrsRequest{IDs: []graph.NodeID{1 << 40}}},
		{Op: OpGetAttrs, Attrs: AttrsRequest{IDs: owned}},
	}, true, &c)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := srv.Handle(bg, frame)
	if err != nil {
		t.Fatalf("one hostile sub failed the whole frame: %v", err)
	}
	subs, err := DecodePackedResponse(raw, 0, &c)
	if err != nil || len(subs) != 3 {
		t.Fatalf("decoded %d subs, err %v", len(subs), err)
	}
	if subs[0].Err != nil || len(subs[0].Neighbors.Lists) != 2 {
		t.Fatalf("co-packed neighbors sub: %+v", subs[0])
	}
	var se *ServerError
	if !errors.As(subs[1].Err, &se) {
		t.Fatalf("hostile sub error = %v, want *ServerError", subs[1].Err)
	}
	if subs[2].Err != nil || len(subs[2].Attrs.Attrs) != 2*g.AttrLen() {
		t.Fatalf("co-packed attrs sub: %+v", subs[2])
	}
}

// TestAttrCoalescerDedup: duplicate IDs in one fetch cost one wire fetch
// each, and the output layout still covers every position.
func TestAttrCoalescerDedup(t *testing.T) {
	g := testGraph(t)
	part := HashPartitioner{N: 2}
	srv := []*Server{NewServer(g, part, 0), NewServer(g, part, 1)}
	cl, err := NewClientContext(bg, DirectTransport{Servers: srv}, part, -1)
	if err != nil {
		t.Fatal(err)
	}
	ids := []graph.NodeID{7, 7, 7, 12, 12, 7}
	attrs, err := getAttrs(cl, ids)
	if err != nil {
		t.Fatal(err)
	}
	al := cl.AttrLen()
	if len(attrs) != len(ids)*al {
		t.Fatalf("layout %d floats, want %d", len(attrs), len(ids)*al)
	}
	var want []float32
	want = g.Attr(want, 7)
	for i := range []int{0, 1, 2} {
		got := attrs[i*al : (i+1)*al]
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("dup position %d attr mismatch", i)
			}
		}
	}
	if d := cl.Pack.dedup.Load(); d != 4 {
		t.Fatalf("dedup hits = %d, want 4", d)
	}
}

func FuzzDecodePacked(f *testing.F) {
	var c mof.VecCodec
	seed1, _ := EncodePackedRequest([]PackedSubRequest{
		{Op: OpGetNeighbors, Neighbors: NeighborsRequest{IDs: []graph.NodeID{1, 2, 3}}},
		{Op: OpGetAttrs, Attrs: AttrsRequest{IDs: []graph.NodeID{9}}},
	}, true, &c)
	seed2, _ := EncodePackedRequest([]PackedSubRequest{
		{Op: OpGetAttrs, Attrs: AttrsRequest{IDs: nil}},
	}, false, &c)
	seed3 := EncodePackedResponse(Header{BDI: true}, []PackedSubResponse{
		{Op: OpGetNeighbors, Neighbors: NeighborsResponse{Lists: [][]graph.NodeID{{4, 5}, {}}}},
		{Op: OpGetAttrs, Attrs: AttrsResponse{AttrLen: 2, Attrs: []float32{1, 2}}},
		{Err: &ServerError{Server: 1, Msg: "no"}},
	}, &c)
	f.Add(seed1)
	f.Add(seed2)
	f.Add(seed3)
	f.Add(bare(OpPacked, 1, 0, 0, 0, 0, 0))
	// The shape every client sends, and its reply.
	seed4, _ := EncodePackedRequest([]PackedSubRequest{
		{Op: OpGetNeighbors, Neighbors: NeighborsRequest{IDs: []graph.NodeID{8, 16, 24, 1 << 33}}},
	}, true, &c)
	seed5 := EncodePackedResponse(Header{BDI: true, Traced: true, Trace: 77}, []PackedSubResponse{
		{Op: OpGetNeighbors, Neighbors: NeighborsResponse{Lists: [][]graph.NodeID{{9, 10}, {}, {11}, {}}}},
	}, &c)
	f.Add(seed4)
	f.Add(seed5)
	f.Fuzz(func(t *testing.T, data []byte) {
		var fc mof.VecCodec
		// Must never panic or over-allocate; errors are the contract for
		// hostile frames.
		h, body, _ := ParseHeader(data)
		if subs, err := DecodePackedRequest(body, h.BDI, &fc); err == nil {
			// A frame that decodes must re-encode decodable (not
			// necessarily byte-identical: compression flags may differ).
			re, err := EncodePackedRequest(subs, h.BDI, &fc)
			if err != nil {
				t.Fatalf("re-encode of decoded frame failed: %v", err)
			}
			again, err := DecodePackedRequest(bodyOf(t, re), h.BDI, &fc)
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if len(again) != len(subs) {
				t.Fatalf("re-decode lost subs: %d vs %d", len(again), len(subs))
			}
		}
		_, _ = func() ([]PackedSubResponse, error) { return DecodePackedResponse(data, 0, &fc) }()
	})
}

// TestPackedFrameSizes sanity-checks the packed encoding against random
// inputs: whatever goes in comes back out.
func TestPackedFrameSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var c mof.VecCodec
	for iter := 0; iter < 50; iter++ {
		n := 1 + rng.Intn(MaxPackedRequests)
		subs := make([]PackedSubRequest, n)
		for i := range subs {
			ids := make([]graph.NodeID, rng.Intn(40))
			for j := range ids {
				ids[j] = graph.NodeID(rng.Uint64() >> rng.Intn(50))
			}
			if rng.Intn(2) == 0 {
				subs[i] = PackedSubRequest{Op: OpGetNeighbors, Neighbors: NeighborsRequest{IDs: ids}}
			} else {
				subs[i] = PackedSubRequest{Op: OpGetAttrs, Attrs: AttrsRequest{IDs: ids}}
			}
		}
		bdi := rng.Intn(2) == 0
		frame, err := EncodePackedRequest(subs, bdi, &c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodePackedRequest(bodyOf(t, frame), bdi, &c)
		if err != nil {
			t.Fatalf("iter %d: %v (frame %s...)", iter, err, hexPrefix(frame))
		}
		for i := range subs {
			a, b := subs[i].Neighbors.IDs, got[i].Neighbors.IDs
			if subs[i].Op == OpGetAttrs {
				a, b = subs[i].Attrs.IDs, got[i].Attrs.IDs
			}
			if len(a) != len(b) {
				t.Fatalf("iter %d sub %d: %d ids became %d", iter, i, len(a), len(b))
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("iter %d sub %d id %d mismatch", iter, i, j)
				}
			}
		}
	}
}

func hexPrefix(b []byte) string {
	if len(b) > 16 {
		b = b[:16]
	}
	var buf bytes.Buffer
	for _, x := range b {
		fmt.Fprintf(&buf, "%02x", x)
	}
	return buf.String()
}
