package cluster

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"lsdgnn/internal/graph"
)

// waitFor polls cond until it holds; the calls it watches are parked in a
// test transport, so only a bug makes it time out.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// dirtyBuffers returns fetch destinations for n IDs pre-filled with values
// no graph holds: a sentinel list in every slot, NaN in every float.
func dirtyBuffers(n, attrLen int) ([][]graph.NodeID, []float32) {
	lists, attrs := make([][]graph.NodeID, n), make([]float32, n*attrLen)
	for i := range lists {
		lists[i] = []graph.NodeID{math.MaxInt64}
	}
	for i := range attrs {
		attrs[i] = float32(math.NaN())
	}
	return lists, attrs
}

// checkAgainstGraph asserts, element by element, that a fetch of ids left
// the graph's own data at every position — or nil / zero fill where lost
// says the position's owner was down. A nil lists checks attrs only.
func checkAgainstGraph(t *testing.T, g *graph.Graph, ids []graph.NodeID, lists [][]graph.NodeID, attrs []float32, lost func(graph.NodeID) bool) {
	t.Helper()
	al := g.AttrLen()
	for i, v := range ids {
		wantList, wantAttrs := g.Neighbors(v), g.Attr(nil, v)
		if lost(v) {
			wantList, wantAttrs = nil, make([]float32, al)
		}
		if lists != nil && (!slices.Equal(lists[i], wantList) || lost(v) && lists[i] != nil) {
			t.Fatalf("position %d (node %d): list %v, want %v", i, v, lists[i], wantList)
		}
		if got := attrs[i*al : (i+1)*al]; !slices.Equal(got, wantAttrs) {
			t.Fatalf("position %d (node %d): attrs %v, want %v", i, v, got, wantAttrs)
		}
	}
}

// TestClientStoreContract pins what NeighborsBatch and AttrsBatch promise
// about dst: on a nil or *PartialError return every element is defined —
// lost shards' positions nil / zero — and on any other error dst is
// cleared, whatever it held on entry.
func TestClientStoreContract(t *testing.T) {
	g := testGraph(t)
	const partitions, dead = 3, 1
	part := HashPartitioner{N: partitions}
	al := g.AttrLen()
	ids := chaosRoots(g, 0, 48)
	ids = append(ids, ids[0], ids[5], ids[5], ids[17]) // duplicates land in every asking position
	none := func(graph.NodeID) bool { return false }
	onDead := func(v graph.NodeID) bool { return part.Owner(v) == dead }
	all := func(graph.NodeID) bool { return true }

	// packed builds the client through the deprecated WithPacking shim, which
	// must select nothing: both columns hold to the same contract.
	build := func(t *testing.T, packed, partial bool) (*FaultyTransport, *Client) {
		servers := make([]*Server, partitions)
		for i := range servers {
			servers[i] = NewServer(g, part, i)
		}
		ft := NewFaultyTransport(DirectTransport{Servers: servers}, 1)
		opts := []ClientOption{WithResilience(ResilienceConfig{
			Retry:          RetryPolicy{MaxAttempts: 1},
			Breaker:        BreakerConfig{Threshold: 1000, OpenFor: time.Minute},
			PartialResults: partial,
		})}
		if packed {
			opts = append(opts, WithPacking(PackingConfig{}))
		}
		client, err := NewClientContext(bg, ft, part, -1, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return ft, client
	}

	for _, packed := range []bool{false, true} {
		for _, tc := range []struct {
			name          string
			kill, partial bool
			lost          func(graph.NodeID) bool // a cleared dst reads as "every position lost"
		}{{"healthy", false, false, none}, {"partial", true, true, onDead}, {"failclosed", true, false, all}} {
			t.Run(fmt.Sprintf("packed=%v/%s", packed, tc.name), func(t *testing.T) {
				ft, client := build(t, packed, tc.partial)
				if tc.kill {
					ft.KillServer(dead)
				}
				lists, attrs := dirtyBuffers(len(ids), al)
				for _, err := range []error{client.NeighborsBatch(bg, lists, ids), client.AttrsBatch(bg, attrs, ids)} {
					pe, partial := AsPartial(err)
					ok := err == nil
					if tc.kill {
						ok = failed(err)
					}
					if tc.partial {
						ok = partial && len(pe.Shards) == 1 && pe.Shards[0].Server == dead
					}
					if !ok {
						t.Fatalf("fetch returned %v", err)
					}
				}
				checkAgainstGraph(t, g, ids, lists, attrs, tc.lost)
				if d := client.Pack.dedup.Load(); d != 4 {
					t.Fatalf("attr_dedup_hits = %d, want 4", d)
				}
			})
		}
	}
}
