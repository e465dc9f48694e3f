package cluster

import (
	"errors"
	"reflect"
	"testing"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/mem"
	"lsdgnn/internal/mof"
	"lsdgnn/internal/sampler"
)

func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	return graph.Generate(graph.GenConfig{NumNodes: 1500, AvgDegree: 7, AttrLen: 6, Seed: 1, PowerLaw: true})
}

func TestHashPartitionerBalance(t *testing.T) {
	p := HashPartitioner{N: 4}
	counts := make([]int, 4)
	for v := 0; v < 10000; v++ {
		o := p.Owner(graph.NodeID(v))
		if o < 0 || o >= 4 {
			t.Fatalf("owner %d out of range", o)
		}
		counts[o]++
	}
	for i, c := range counts {
		if c < 2000 || c > 3000 {
			t.Fatalf("partition %d holds %d of 10000 (imbalanced)", i, c)
		}
	}
}

func TestRangePartitioner(t *testing.T) {
	p := RangePartitioner{N: 4, NumNodes: 100}
	if p.Owner(0) != 0 || p.Owner(24) != 0 || p.Owner(25) != 1 || p.Owner(99) != 3 {
		t.Fatal("range boundaries wrong")
	}
	if p.Servers() != 4 {
		t.Fatal("server count wrong")
	}
}

func TestValidatePartitioner(t *testing.T) {
	if err := ValidatePartitioner(HashPartitioner{N: 3}, 1000); err != nil {
		t.Fatal(err)
	}
	if err := ValidatePartitioner(HashPartitioner{N: 0}, 10); err == nil {
		t.Fatal("zero servers accepted")
	}
}

func TestGroupByOwner(t *testing.T) {
	p := HashPartitioner{N: 3}
	ids := []graph.NodeID{0, 1, 2, 3, 4, 5, 6, 7, 3}
	grp, pos, off := GroupByOwner(p, ids)
	defer mem.IDs.Put(grp)
	defer mem.U32s.Put(pos)
	defer mem.U32s.Put(off)
	if len(off) != 4 || off[0] != 0 || off[3] != uint32(len(ids)) {
		t.Fatalf("offsets %v do not cover %d ids", off, len(ids))
	}
	for s := 0; s < 3; s++ {
		for j := off[s]; j < off[s+1]; j++ {
			if p.Owner(grp[j]) != s {
				t.Fatalf("node %d grouped to wrong server", grp[j])
			}
			if ids[pos[j]] != grp[j] {
				t.Fatal("positions do not map back")
			}
			if j > off[s] && pos[j] <= pos[j-1] {
				t.Fatal("a server's group is out of input order")
			}
		}
	}
}

func TestProtocolMetaRoundTrip(t *testing.T) {
	m := MetaResponse{NumNodes: 1 << 33, AttrLen: 84, Partition: 2, Partitions: 5}
	got, err := DecodeMetaResponse(EncodeMetaResponse(Header{}, m))
	if err != nil || got != m {
		t.Fatalf("meta round trip = %+v, %v", got, err)
	}
}

func TestProtocolRejectsGarbage(t *testing.T) {
	var c mof.VecCodec
	if _, err := DecodePackedResponse(EncodeMetaResponse(Header{}, MetaResponse{}), 0, &c); err == nil {
		t.Fatal("wrong op accepted")
	}
	// One sub whose ID section claims 9 bytes and carries none.
	if _, err := DecodePackedRequest([]byte{1, 0, 10, 0, 0, 0, OpGetNeighbors, 9, 0, 0, 0, 0, 0, 0, 0, 0}, false, &c); err == nil {
		t.Fatal("truncated ID section accepted")
	}
	msg, err := EncodePackedRequest([]PackedSubRequest{{Op: OpGetAttrs, Attrs: AttrsRequest{IDs: []graph.NodeID{1}}}}, false, &c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePackedRequest(append(bodyOf(t, msg), 0xFF), false, &c); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if _, err := DecodeMetaResponse(bare(OpMeta, 1)); err == nil {
		t.Fatal("short meta accepted")
	}
}

func buildCluster(t *testing.T, g *graph.Graph, n int) ([]*Server, *Client) {
	t.Helper()
	part := HashPartitioner{N: n}
	servers := make([]*Server, n)
	for i := range servers {
		servers[i] = NewServer(g, part, i)
	}
	client, err := NewClient(DirectTransport{Servers: servers}, part, 0)
	if err != nil {
		t.Fatal(err)
	}
	return servers, client
}

// getNeighbors and getAttrs run the client's batch fetches into fresh
// buffers, for tests that only want the data.
func getNeighbors(c *Client, ids []graph.NodeID) ([][]graph.NodeID, error) {
	dst := make([][]graph.NodeID, len(ids))
	return dst, c.NeighborsBatch(bg, dst, ids)
}

func getAttrs(c *Client, ids []graph.NodeID) ([]float32, error) {
	dst := make([]float32, len(ids)*c.AttrLen())
	return dst, c.AttrsBatch(bg, dst, ids)
}

// handleSub sends one one-sub frame for ids through srv.Handle and returns
// that sub's verdict: a rejection must come back as the sub's own
// *ServerError inside a frame that succeeded.
func handleSub(t *testing.T, srv *Server, op byte, ids []graph.NodeID) error {
	t.Helper()
	var c mof.VecCodec
	sub := PackedSubRequest{Op: op, Neighbors: NeighborsRequest{IDs: ids}, Attrs: AttrsRequest{IDs: ids}}
	frame, err := EncodePackedRequest([]PackedSubRequest{sub}, true, &c)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := srv.Handle(bg, frame)
	if err != nil {
		t.Fatalf("Handle failed the frame instead of the sub: %v", err)
	}
	subs, err := DecodePackedResponse(reply, 0, &c)
	if err != nil || len(subs) != 1 {
		t.Fatalf("decoded %d subs, err %v", len(subs), err)
	}
	if err := subs[0].Err; err != nil && !errors.As(err, new(*ServerError)) {
		t.Fatalf("sub error %v is not a *ServerError", err)
	}
	return subs[0].Err
}

func TestServerRejectsForeignNodes(t *testing.T) {
	g := testGraph(t)
	part := HashPartitioner{N: 2}
	srv := NewServer(g, part, 0)
	var foreign graph.NodeID
	for v := graph.NodeID(0); ; v++ {
		if part.Owner(v) == 1 {
			foreign = v
			break
		}
	}
	if handleSub(t, srv, OpGetNeighbors, []graph.NodeID{foreign}) == nil {
		t.Fatal("misrouted neighbor request accepted")
	}
	if handleSub(t, srv, OpGetAttrs, []graph.NodeID{foreign}) == nil {
		t.Fatal("misrouted attrs request accepted")
	}
}

func TestServerHandleUnknownOp(t *testing.T) {
	srv := NewServer(testGraph(t), HashPartitioner{N: 1}, 0)
	if _, err := srv.Handle(bg, []byte{0x7F}); err == nil {
		t.Fatal("unknown op accepted")
	}
	if _, err := srv.Handle(bg, nil); err == nil {
		t.Fatal("empty message accepted")
	}
}

func TestClientNeighborsMatchGraph(t *testing.T) {
	g := testGraph(t)
	_, client := buildCluster(t, g, 4)
	ids := []graph.NodeID{0, 7, 100, 999, 3}
	lists, err := getNeighbors(client, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range ids {
		want := g.Neighbors(v)
		if len(lists[i]) != len(want) {
			t.Fatalf("node %d: got %d neighbors, want %d", v, len(lists[i]), len(want))
		}
		for j := range want {
			if lists[i][j] != want[j] {
				t.Fatalf("node %d neighbor %d mismatch", v, j)
			}
		}
	}
}

func TestClientAttrsMatchGraph(t *testing.T) {
	g := testGraph(t)
	_, client := buildCluster(t, g, 3)
	ids := []graph.NodeID{4, 40, 400}
	attrs, err := getAttrs(client, ids)
	if err != nil {
		t.Fatal(err)
	}
	al := g.AttrLen()
	for i, v := range ids {
		want := g.Attr(nil, v)
		for j := range want {
			if attrs[i*al+j] != want[j] {
				t.Fatalf("node %d attr %d mismatch", v, j)
			}
		}
	}
}

func TestClientSampleBatchLayoutMatchesLocal(t *testing.T) {
	g := testGraph(t)
	_, client := buildCluster(t, g, 4)
	cfg := sampler.Config{Fanouts: []int{4, 3}, NegativeRate: 2, Method: sampler.Streaming, FetchAttrs: true, Seed: 9}
	roots := []graph.NodeID{1, 2, 3}
	// The client's own sampling loop draws exactly what the reference
	// sampler draws, weighted or not.
	var dist, local *sampler.Result
	for _, wf := range []sampler.WeightFunc{sampler.DegreeWeight(sampler.LocalStore{G: g}), nil} {
		cfg.WeightFn = wf
		var err error
		if dist, err = sampler.KHop(bg, client, cfg, roots); err != nil {
			t.Fatal(err)
		}
		local = sampler.New(sampler.LocalStore{G: g}, cfg).SampleBatch(roots)
		if !reflect.DeepEqual(dist.Hops, local.Hops) {
			t.Fatalf("weighted=%v: client hops diverge from the reference sampler", wf != nil)
		}
	}
	if len(dist.Attrs) != len(local.Attrs) {
		t.Fatal("attr layout differs")
	}
	// The distributed path samples from true adjacency too.
	for i, p := range roots {
		nbrs := map[graph.NodeID]bool{p: true}
		for _, u := range g.Neighbors(p) {
			nbrs[u] = true
		}
		for _, c := range dist.Hops[0][i*4 : (i+1)*4] {
			if !nbrs[c] {
				t.Fatalf("distributed sample %d not a neighbor of %d", c, p)
			}
		}
	}
}

func TestClientTrafficAccounting(t *testing.T) {
	g := testGraph(t)
	_, client := buildCluster(t, g, 4)
	_, err := getAttrs(client, []graph.NodeID{1, 2, 3, 4, 5, 6, 7, 8})
	if err != nil {
		t.Fatal(err)
	}
	tr := client.Traffic.Snapshot()
	if tr.Requests == 0 || tr.RequestBytes == 0 || tr.ResponseBytes == 0 {
		t.Fatalf("traffic not recorded: %+v", tr)
	}
	if tr.RemoteRequests == 0 {
		t.Fatal("4-way partitioned batch should hit remote servers")
	}
	if tr.RemoteRequests > tr.Requests {
		t.Fatal("remote requests exceed total")
	}
}

func TestClientMetaMismatch(t *testing.T) {
	g := testGraph(t)
	part := HashPartitioner{N: 2}
	servers := []*Server{NewServer(g, part, 0), NewServer(g, part, 1)}
	// Client configured with the wrong partition count must refuse.
	if _, err := NewClient(DirectTransport{Servers: servers}, HashPartitioner{N: 3}, 0); err == nil {
		t.Fatal("partition-count mismatch accepted")
	}
}

func TestDirectTransportBadServer(t *testing.T) {
	tr := DirectTransport{Servers: nil}
	if _, err := tr.Call(bg, 0, metaReq); err == nil {
		t.Fatal("call to missing server accepted")
	}
}
