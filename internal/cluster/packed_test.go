package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/mem"
	"lsdgnn/internal/mof"
	"lsdgnn/internal/sampler"
	"lsdgnn/internal/trace"
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

// TestPackedResponseRoundTrip: the server's replies decode to exactly what
// the graph holds, with a rejected sub typed and its siblings intact, under
// both header BDI settings; and a peer's reply the server never sends — a
// retryable sub error, a BDI-compressed float section — decodes too.
func TestPackedResponseRoundTrip(t *testing.T) {
	g := testGraph(t)
	part := HashPartitioner{N: 2}
	srv := NewServer(g, part, 0)
	var owned []graph.NodeID
	foreign := graph.NodeID(0)
	for v := graph.NodeID(0); len(owned) < 3 || foreign == 0; v++ {
		if part.Owner(v) == 1 {
			foreign = v
		} else if len(owned) < 3 {
			owned = append(owned, v)
		}
	}
	var c mof.VecCodec
	for _, bdi := range []bool{false, true} {
		req, err := EncodePackedRequest([]PackedSubRequest{
			{Op: OpGetNeighbors, Neighbors: NeighborsRequest{IDs: owned}},
			{Op: OpGetAttrs, Attrs: AttrsRequest{IDs: owned}},
			{Op: OpGetAttrs, Attrs: AttrsRequest{IDs: []graph.NodeID{owned[0], foreign}}},
			{Op: OpGetNeighbors, Neighbors: NeighborsRequest{IDs: owned[1:]}},
		}, bdi, &c)
		if err != nil {
			t.Fatal(err)
		}
		reply, err := srv.Handle(bg, req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodePackedResponse(reply, 0, &c)
		if err != nil || len(got) != 4 {
			t.Fatalf("decoded %d subs, err %v", len(got), err)
		}
		for i, want := range [][]graph.NodeID{owned, owned[1:]} {
			lists := got[3*i].Neighbors.Lists
			if len(lists) != len(want) {
				t.Fatalf("sub %d: %d lists, want %d", 3*i, len(lists), len(want))
			}
			for j, v := range want {
				if !slices.Equal(lists[j], g.Neighbors(v)) {
					t.Fatalf("sub %d node %d: lists mismatch: %v", 3*i, v, lists[j])
				}
			}
		}
		var attrs []float32
		for _, v := range owned {
			attrs = g.Attr(attrs, v)
		}
		if got[1].Attrs.AttrLen != g.AttrLen() || !bytes.Equal(got[1].Attrs.Payload, floatBytes(attrs...)) {
			t.Fatalf("attrs mismatch: %+v", got[1].Attrs)
		}
		var se *ServerError
		if !errors.As(got[2].Err, &se) || se.Server != 0 || !strings.Contains(se.Msg, "owned by 1") {
			t.Fatalf("rejection did not round-trip typed: %v", got[2].Err)
		}
		mem.Bytes.Recycle(reply)
	}

	payload := make([]byte, 64*4)
	for i := 0; i < len(payload); i += 4 {
		putFloats(payload[i:], []float32{1.5})
	}
	attrsSub := binary.LittleEndian.AppendUint32([]byte{statusOK, OpGetAttrs}, 8)
	attrsSub = c.AppendBytes(attrsSub, payload, true)
	if attrsSub[10]&mof.SectionBDI == 0 {
		t.Fatal("constant floats did not compress; the BDI decode goes untested")
	}
	got, err := DecodePackedResponse(peerReply(Header{BDI: true}, append([]byte{statusError}, "transient"...), attrsSub), 3, &c)
	if err != nil || len(got) != 2 {
		t.Fatalf("decoded %d subs, err %v", len(got), err)
	}
	if got[0].Err == nil || errors.As(got[0].Err, new(*ServerError)) {
		t.Fatalf("retryable sub error came back as %v", got[0].Err)
	}
	if got[1].Attrs.AttrLen != 8 || !bytes.Equal(got[1].Attrs.Payload, payload) {
		t.Fatalf("BDI float section decoded as %+v", got[1].Attrs)
	}
}

// floatBytes is vals as an attrs payload: little-endian float32s.
func floatBytes(vals ...float32) []byte {
	out := make([]byte, len(vals)*4)
	putFloats(out, vals)
	return out
}

// peerReply frames whole sub-response bodies, status byte first, into an
// OpPacked reply under h, as a peer other than Server might send it.
func peerReply(h Header, subs ...[]byte) []byte {
	h.Op = OpPacked
	out := binary.LittleEndian.AppendUint16(AppendHeader(nil, h), uint16(len(subs)))
	for _, sub := range subs {
		out = append(binary.LittleEndian.AppendUint32(out, uint32(len(sub))), sub...)
	}
	return out
}

// raceSlack is the extra allocations per call an allocation count allows:
// none, except under -race (race_test.go).
var raceSlack float64

// TestPackedResponseEncodesWithoutAllocating: Server.Handle writes an attrs
// reply straight into a pooled frame, its float section raw with no BDI
// trial, so once warm answering 2000×64 attributes allocates nothing beyond
// what decoding the request takes, and the payload crosses byte for byte.
func TestPackedResponseEncodesWithoutAllocating(t *testing.T) {
	g := graph.Generate(graph.GenConfig{NumNodes: 4096, AvgDegree: 2, AttrLen: 64, Seed: 3})
	srv := NewServer(g, HashPartitioner{N: 1}, 0)
	ids := make([]graph.NodeID, 2000)
	for i := range ids {
		ids[i] = graph.NodeID(i * 2)
	}
	var c mof.VecCodec
	req, err := EncodePackedRequest([]PackedSubRequest{{Op: OpGetAttrs, Attrs: AttrsRequest{IDs: ids}}}, true, &c)
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
	decode := func() {
		if _, err := DecodePackedRequest(bodyOf(t, req), true, &c); err != nil {
			t.Fatal(err)
		}
	}
	// No collection while counting: a GC would empty the pools and charge
	// their refill to the handler.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	handle()
	if h, d := testing.AllocsPerRun(100, handle), testing.AllocsPerRun(100, decode); h > d+raceSlack {
		t.Fatalf("answering one attrs sub allocated %.0f times once warm, the request decode alone %.0f", h, d)
	}
	reply, err := srv.Handle(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Bytes.Recycle(reply)
	// header(2) + count(2) + len(4) + status, op(2) + attrLen(4) + section
	// header(9) + raw floats.
	if want := 23 + len(ids)*64*4; len(reply) != want {
		t.Fatalf("reply is %d bytes, want %d (raw section)", len(reply), want)
	}
	var attrs []float32
	for _, v := range ids {
		attrs = g.Attr(attrs, v)
	}
	got, err := DecodePackedResponse(reply, 0, &c)
	if err != nil || !bytes.Equal(got[0].Attrs.Payload, floatBytes(attrs...)) {
		t.Fatalf("pooled reply did not round-trip: %v", err)
	}
}

// TestAttrsBatchAllocatesLessThanItsReply: reply frames are pooled on both
// ends, vectors are written into the reply and read out of it in place, so
// a warmed-up AttrsBatch allocates less than one reply's payload — a single
// copy of the attributes anywhere on the path would cost that much.
func TestAttrsBatchAllocatesLessThanItsReply(t *testing.T) {
	// 60 floats a vector keep the reply frame just under its pool class, so
	// the pool drops the race detector injects cost at most one payload.
	g := graph.Generate(graph.GenConfig{NumNodes: 4096, AvgDegree: 4, AttrLen: 60, Seed: 5})
	part := HashPartitioner{N: 1}
	cl, err := NewClientContext(bg, DirectTransport{Servers: []*Server{NewServer(g, part, 0)}}, part, -1)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]graph.NodeID, 1024)
	for i := range ids {
		ids[i] = graph.NodeID(i * 3)
	}
	dst := make([]float32, len(ids)*g.AttrLen())
	fetch := func() {
		if err := cl.AttrsBatch(bg, dst, ids); err != nil {
			t.Fatal(err)
		}
	}
	// No collection while counting: a GC would empty the pools and charge
	// their refill to the fetch.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fetch()
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, fetch) // runs+1 calls: one warms up
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	if payload := uint64(len(dst) * 4); perRun >= payload {
		t.Fatalf("AttrsBatch of %d ids allocated %d B per call (%.0f allocs), want less than the %d B reply payload", len(ids), perRun, allocs, payload)
	}
	for i, v := range ids {
		if !reflect.DeepEqual(dst[i*g.AttrLen():][:g.AttrLen()], g.Attr(nil, v)) {
			t.Fatalf("id %d: attributes differ from the graph's", v)
		}
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
	got, err := sampler.KHop(bg, cl, cfg, roots)
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
	if subs[2].Err != nil || len(subs[2].Attrs.Payload) != 2*g.AttrLen()*4 {
		t.Fatalf("co-packed attrs sub: %+v", subs[2])
	}
}

// TestServerAccessTotalsPerID: a server records each sub's accesses once,
// yet its totals are what one record per served ID gives — a structure
// access of 16 + 8·degree bytes per list, an attribute access of AttrBytes
// per vector — counting the IDs a rejected sub served before its bad one,
// also when the bad one sits past the first ctxCheckStride chunk. A clean
// sub spanning two chunks carries g.Attr's values bit for bit.
func TestServerAccessTotalsPerID(t *testing.T) {
	g := testGraph(t)
	part := HashPartitioner{N: 2}
	srv := NewServer(g, part, 0)
	var owned []graph.NodeID
	foreign := graph.NodeID(0)
	for v := graph.NodeID(0); len(owned) < ctxCheckStride+40 || foreign == 0; v++ {
		if part.Owner(v) == 1 {
			foreign = v
		} else if len(owned) < ctxCheckStride+40 {
			owned = append(owned, v)
		}
	}
	prefix := owned[:ctxCheckStride+20]
	var c mof.VecCodec
	frame, err := EncodePackedRequest([]PackedSubRequest{
		{Op: OpGetNeighbors, Neighbors: NeighborsRequest{IDs: owned[:3]}},
		{Op: OpGetAttrs, Attrs: AttrsRequest{IDs: owned[:3]}},
		{Op: OpGetNeighbors, Neighbors: NeighborsRequest{IDs: []graph.NodeID{owned[0], foreign, owned[1]}}},
		{Op: OpGetAttrs, Attrs: AttrsRequest{IDs: []graph.NodeID{owned[1], foreign}}},
		{Op: OpGetAttrs, Attrs: AttrsRequest{IDs: prefix}},
		{Op: OpGetAttrs, Attrs: AttrsRequest{IDs: append(append(slices.Clone(prefix), foreign), owned[len(prefix):]...)}},
	}, false, &c)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := srv.Handle(bg, frame)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Bytes.Recycle(reply)
	subs, err := DecodePackedResponse(reply, 0, &c)
	if err != nil {
		t.Fatal(err)
	}
	for i, rejected := range []bool{false, false, true, true, false, true} {
		if (subs[i].Err != nil) != rejected {
			t.Fatalf("sub %d: err %v, want rejected=%v", i, subs[i].Err, rejected)
		}
	}
	payload := subs[4].Attrs.Payload
	if len(payload) != len(prefix)*g.AttrBytes() {
		t.Fatalf("clean sub payload %d bytes, want %d", len(payload), len(prefix)*g.AttrBytes())
	}
	var want []float32
	for _, v := range prefix {
		want = g.Attr(want, v)
	}
	for i, f := range want {
		if got := binary.LittleEndian.Uint32(payload[i*4:]); got != math.Float32bits(f) {
			t.Fatalf("clean sub float %d (node %d): bits %#x, want %#x", i, prefix[i/g.AttrLen()], got, math.Float32bits(f))
		}
	}
	var wantStats trace.AccessStats
	for _, v := range append(slices.Clone(owned[:3]), owned[0]) {
		wantStats.Record(trace.AccessStructure, 1, 16+len(g.Neighbors(v))*8, false)
	}
	for range 3 + 1 + 2*len(prefix) {
		wantStats.Record(trace.AccessAttribute, 1, g.AttrBytes(), false)
	}
	for _, cl := range []trace.AccessClass{trace.AccessStructure, trace.AccessAttribute} {
		if got, w := srv.Stats().Requests(cl), wantStats.Requests(cl); got != w {
			t.Fatalf("%v requests %d, want %d", cl, got, w)
		}
		if got, w := srv.Stats().Bytes(cl), wantStats.Bytes(cl); got != w {
			t.Fatalf("%v bytes %d, want %d", cl, got, w)
		}
	}
}

// TestClientAccessTotalsPerElement: the client records each fetch's
// accesses once, yet its totals are what one record per element gives — a
// 16 B structure access per list plus an 8 B one per neighbor ID, an
// attribute access of AttrBytes per asked-for vector, duplicates included,
// each remote unless the local shard owns it.
func TestClientAccessTotalsPerElement(t *testing.T) {
	g := testGraph(t)
	part := HashPartitioner{N: 2}
	srv := []*Server{NewServer(g, part, 0), NewServer(g, part, 1)}
	cl, err := NewClientContext(bg, DirectTransport{Servers: srv}, part, 0)
	if err != nil {
		t.Fatal(err)
	}
	ids := chaosRoots(g, 3, 40)
	ids = append(ids, ids[1], ids[1], ids[8], ids[30])
	if err := cl.NeighborsBatch(bg, make([][]graph.NodeID, len(ids)), ids); err != nil {
		t.Fatal(err)
	}
	if _, err := getAttrs(cl, ids); err != nil {
		t.Fatal(err)
	}
	var want trace.AccessStats
	for _, v := range ids {
		remote := part.Owner(v) != 0
		want.Record(trace.AccessStructure, 1, 16, remote)
		for range g.Neighbors(v) {
			want.Record(trace.AccessStructure, 1, 8, remote)
		}
		want.Record(trace.AccessAttribute, 1, g.AttrBytes(), remote)
	}
	for _, c := range []trace.AccessClass{trace.AccessStructure, trace.AccessAttribute} {
		if got, w := cl.Access.Requests(c), want.Requests(c); got != w {
			t.Fatalf("%v requests %d, want %d", c, got, w)
		}
		if got, w := cl.Access.Bytes(c), want.Bytes(c); got != w {
			t.Fatalf("%v bytes %d, want %d", c, got, w)
		}
	}
	if got, w := cl.Access.RemoteShare(), want.RemoteShare(); got != w || w == 0 || w == 1 {
		t.Fatalf("remote share %v, want %v (strictly between 0 and 1)", got, w)
	}
}

// TestFloatSectionsMatchPortableCodec: the one-copy float codec writes and
// reads exactly the bytes of the portable per-element loop, for signed
// zeros, infinities, subnormals and NaNs with payload bits, at every byte
// offset — and a payload at an odd offset in a decoded frame reads back
// bit for bit.
func TestFloatSectionsMatchPortableCodec(t *testing.T) {
	patterns := []uint32{
		0x00000000, 0x80000000, // ±0
		0x7f800000, 0xff800000, // ±Inf
		0x00000001, 0x807fffff, // subnormals
		0x7fc00001, 0xffbfffff, 0x7f800001, // NaNs with payloads, quiet and signalling
		0x3fc00000, 0xc2f6e979, 0x00800000, // normals
	}
	vals := make([]float32, len(patterns))
	for i, b := range patterns {
		vals[i] = math.Float32frombits(b)
	}
	want := make([]byte, len(vals)*4)
	putFloatsLE(want, vals)
	for i, b := range patterns {
		if got := binary.LittleEndian.Uint32(want[i*4:]); got != b {
			t.Fatalf("portable codec wrote %#08x for %#08x", got, b)
		}
	}
	sameBits := func(what string, got []float32) {
		t.Helper()
		for i, f := range got {
			if math.Float32bits(f) != patterns[i] {
				t.Fatalf("%s: float %d reads %#08x, want %#08x", what, i, math.Float32bits(f), patterns[i])
			}
		}
	}
	for off := range 4 {
		buf := make([]byte, off+len(want))
		putFloats(buf[off:], vals)
		if !bytes.Equal(buf[off:], want) {
			t.Fatalf("offset %d: bulk codec wrote %x, portable %x", off, buf[off:], want)
		}
		got, portable := make([]float32, len(vals)), make([]float32, len(vals))
		readFloats(got, buf[off:])
		readFloatsLE(portable, buf[off:])
		sameBits(fmt.Sprintf("offset %d bulk", off), got)
		sameBits(fmt.Sprintf("offset %d portable", off), portable)
	}

	// A one-byte and a two-byte error sub ahead of the attrs sub put its
	// payload at offsets of both parities within the frame.
	sub, payload := appendAttrsHead(nil, len(vals), len(vals)*4)
	putFloats(payload, vals)
	var c mof.VecCodec
	odd := false
	for _, lead := range []string{"e", "ee"} {
		frame := peerReply(Header{}, append([]byte{statusError}, lead...), sub)
		got, err := DecodePackedResponse(frame, 0, &c)
		if err != nil || len(got) != 2 || got[1].Err != nil {
			t.Fatalf("decoded %+v, err %v", got, err)
		}
		raw := got[1].Attrs.Payload
		off := cap(frame) - cap(raw)
		odd = odd || off%2 == 1
		if !bytes.Equal(raw, want) {
			t.Fatalf("payload at frame offset %d is %x, want %x", off, raw, want)
		}
		back := make([]float32, len(vals))
		readFloats(back, raw)
		sameBits(fmt.Sprintf("frame offset %d", off), back)
	}
	if !odd {
		t.Fatal("no payload landed at an odd frame offset")
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
	f.Add(seed1)
	f.Add(seed2)
	f.Add(bare(OpPacked, 1, 0, 0, 0, 0, 0))
	// The shape every client sends.
	seed4, _ := EncodePackedRequest([]PackedSubRequest{
		{Op: OpGetNeighbors, Neighbors: NeighborsRequest{IDs: []graph.NodeID{8, 16, 24, 1 << 33}}},
	}, true, &c)
	f.Add(seed4)
	// Replies as the server streams them: neighbors beside attrs, one whose
	// attrs sub is backed out mid-vector by a rejection, a traced one.
	g := testGraph(f)
	srv := NewServer(g, HashPartitioner{N: 1}, 0)
	for _, req := range []struct {
		h    Header
		subs []PackedSubRequest
	}{
		{Header{BDI: true}, []PackedSubRequest{
			{Op: OpGetNeighbors, Neighbors: NeighborsRequest{IDs: []graph.NodeID{4, 5}}},
			{Op: OpGetAttrs, Attrs: AttrsRequest{IDs: []graph.NodeID{3, 1, 4}}}}},
		{Header{BDI: true}, []PackedSubRequest{
			{Op: OpGetNeighbors, Neighbors: NeighborsRequest{IDs: []graph.NodeID{2}}},
			{Op: OpGetAttrs, Attrs: AttrsRequest{IDs: []graph.NodeID{5, 9, 1 << 40, 2}}}}},
		{Header{BDI: true, Traced: true, Trace: 77}, []PackedSubRequest{
			{Op: OpGetNeighbors, Neighbors: NeighborsRequest{IDs: []graph.NodeID{9, 10, 11, 12}}}}},
	} {
		frame, _ := encodePackedRequest(req.h, req.subs, &c)
		reply, err := srv.Handle(bg, frame)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(reply)
	}
	// A peer's reply the server never sends: a retryable sub error.
	f.Add(peerReply(Header{}, append([]byte{statusError}, "transient"...)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var fc mof.VecCodec
		// Must never panic or over-allocate; errors are the contract for
		// hostile frames. Requests decode as a server decodes them: into
		// stack scratch for one sub, IDs into pooled scratch, every section
		// handed back whatever the verdict.
		h, body, _ := ParseHeader(data)
		out := mem.Outstanding()
		var one [1]PackedSubRequest
		if subs, err := decodePackedRequest(one[:0], body, h.BDI, &fc, true); err == nil {
			// A frame that decodes must re-encode decodable (not
			// necessarily byte-identical: compression flags may differ),
			// to what it decoded to.
			re, err := EncodePackedRequest(subs, h.BDI, &fc)
			if err != nil {
				t.Fatalf("re-encode of decoded frame failed: %v", err)
			}
			again, err := DecodePackedRequest(bodyOf(t, re), h.BDI, &fc)
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if !slices.EqualFunc(again, subs, func(a, b PackedSubRequest) bool {
				return a.Op == b.Op && slices.Equal(a.Neighbors.IDs, b.Neighbors.IDs) && slices.Equal(a.Attrs.IDs, b.Attrs.IDs)
			}) {
				t.Fatalf("re-decode gave %v, first decode %v", again, subs)
			}
			putSubIDs(subs)
		}
		if d := mem.Outstanding() - out; d != 0 {
			t.Fatalf("request decode left %d pooled ID sections out", d)
		}
		// Replies as a client decodes them: one sub into stack scratch, its
		// lists into pooled scratch.
		var oneResp [1]PackedSubResponse
		lists := mem.Lists.Get(4)
		_, _ = decodePackedResponse(oneResp[:0], lists[:0], data, 0, &fc)
		mem.Lists.Put(lists)
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

// panickyBackend serves its graph but panics on a neighbours read, the
// residual fault Handle converts to an error.
type panickyBackend struct{ *graph.Graph }

func (panickyBackend) NeighborsBatch(context.Context, [][]graph.NodeID, []graph.NodeID) error {
	panic("backend fault")
}

// TestPooledRequestIDsReturned: a server decodes each sub's request IDs
// into pooled scratch and hands every section back on every path out of
// Handle — a frame whose k-th sub fails to decode (bad op, bad ID section),
// a sub backed out mid-reply and rejected beside served siblings, a
// backend panic, and a frame served whole — so the scratch gauge ends
// where it started.
func TestPooledRequestIDsReturned(t *testing.T) {
	g := testGraph(t)
	part := HashPartitioner{N: 2}
	var owned []graph.NodeID
	var foreign graph.NodeID
	for v := graph.NodeID(0); len(owned) < 600 || foreign == 0; v++ {
		if part.Owner(v) == 1 {
			foreign = v
		} else if len(owned) < 600 {
			owned = append(owned, v)
		}
	}
	// Past the first ctxCheckStride chunk, so the attrs sub has written
	// vectors when it is backed out.
	mid := append(slices.Clone(owned[:400]), foreign)
	var c mof.VecCodec
	encode := func(subs ...PackedSubRequest) []byte {
		frame, err := EncodePackedRequest(subs, true, &c)
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	three := func() []byte {
		return encode(
			PackedSubRequest{Op: OpGetNeighbors, Neighbors: NeighborsRequest{IDs: owned[:3]}},
			PackedSubRequest{Op: OpGetAttrs, Attrs: AttrsRequest{IDs: owned[:5]}},
			PackedSubRequest{Op: OpGetAttrs, Attrs: AttrsRequest{IDs: owned[:7]}})
	}
	// subAt is the offset of sub k's body in an encoded frame.
	subAt := func(frame []byte, k int) int {
		at := 4 // header, count
		for range k {
			at += 4 + int(binary.LittleEndian.Uint32(frame[at:]))
		}
		return at + 4
	}
	badOp := three()
	badOp[subAt(badOp, 2)] = 0x7f
	badSection := three()
	binary.LittleEndian.PutUint32(badSection[subAt(badSection, 2)+1:], 99) // ID count
	backedOut := encode(
		PackedSubRequest{Op: OpGetNeighbors, Neighbors: NeighborsRequest{IDs: owned}},
		PackedSubRequest{Op: OpGetAttrs, Attrs: AttrsRequest{IDs: mid}},
		PackedSubRequest{Op: OpGetNeighbors, Neighbors: NeighborsRequest{IDs: mid}},
		PackedSubRequest{Op: OpGetAttrs, Attrs: AttrsRequest{IDs: owned}})

	srv := NewServer(g, part, 0)
	before := mem.Outstanding()
	for name, frame := range map[string][]byte{"bad op in sub 2": badOp, "bad ID section in sub 2": badSection} {
		if _, err := srv.Handle(bg, frame); !errors.As(err, new(*ServerError)) {
			t.Fatalf("%s: Handle returned %v, want a frame rejection", name, err)
		}
	}
	reply, err := srv.Handle(bg, backedOut)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := DecodePackedResponse(reply, 0, &c)
	if err != nil || len(subs) != 4 {
		t.Fatalf("decoded %d subs, err %v", len(subs), err)
	}
	for i, sub := range subs {
		if rejected := errors.As(sub.Err, new(*ServerError)); rejected != (i == 1 || i == 2) {
			t.Fatalf("sub %d: err %v", i, sub.Err)
		}
	}
	mem.Bytes.Recycle(reply)
	if _, err := NewBackendServer(panickyBackend{g}, part, 0).Handle(bg, three()); err == nil || !strings.Contains(err.Error(), "backend fault") {
		t.Fatalf("panicking backend: %v", err)
	}
	if d := mem.Outstanding() - before; d != 0 {
		t.Fatalf("%d pooled scratch buffers left out by Handle", d)
	}
}
