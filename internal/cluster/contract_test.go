package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/pipeline"
	"lsdgnn/internal/sampler"
	"lsdgnn/internal/store"
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

// sentinelBits is the float every dirty buffer starts as: a NaN with a
// payload no graph attribute holds.
const sentinelBits = 0x7fc0dead

// dirtyBuffers returns fetch destinations for n IDs pre-filled with values
// no graph holds: a sentinel list in every slot, the sentinel NaN in every
// float.
func dirtyBuffers(n, attrLen int) ([][]graph.NodeID, []float32) {
	lists, attrs := make([][]graph.NodeID, n), make([]float32, n*attrLen)
	for i := range lists {
		lists[i] = []graph.NodeID{math.MaxInt64}
	}
	poison(attrs)
	return lists, attrs
}

func poison(attrs []float32) {
	for i := range attrs {
		attrs[i] = math.Float32frombits(sentinelBits)
	}
}

// checkAgainstGraph asserts, element by element, that a fetch of ids left
// the graph's own data at every position — or nil / zero fill where lost
// says the position's owner was down. A nil lists checks attrs only.
func checkAgainstGraph(t *testing.T, g *graph.Graph, ids []graph.NodeID, lists [][]graph.NodeID, attrs []float32, lost func(graph.NodeID) bool) {
	t.Helper()
	al := g.AttrLen()
	if i := slices.IndexFunc(attrs, func(f float32) bool { return math.Float32bits(f) == sentinelBits }); i >= 0 {
		t.Fatalf("float %d (node %d) still holds the sentinel", i, ids[i/al])
	}
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

// poisoned hands its store a sentinel-filled dst on every AttrsBatch, as a
// recycled result buffer would.
type poisoned struct{ sampler.Store }

func (p poisoned) AttrsBatch(ctx context.Context, dst []float32, vs []graph.NodeID) error {
	poison(dst)
	return p.Store.AttrsBatch(ctx, dst, vs)
}

// TestClientStoreContract pins what NeighborsBatch and AttrsBatch promise
// about dst: on a nil or *PartialError return every element is defined —
// lost shards' positions nil / zero — and on any other error dst is
// cleared, whatever it held on entry. The AttrsBatch half holds for every
// sampler.Store implementation, which is what lets KHop hand them an
// unzeroed result buffer.
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

	// gather fetches ids' attributes into a sentinel-filled dst.
	gather := func(st sampler.Store) ([]graph.NodeID, []float32, error) {
		_, attrs := dirtyBuffers(len(ids), al)
		return ids, attrs, st.AttrsBatch(bg, attrs, ids)
	}
	hetero := graph.NewHetero(g.NumNodes(), al)
	if err := hetero.AddRelation("follows", g); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		lost func(graph.NodeID) bool
		run  func(t *testing.T) ([]graph.NodeID, []float32, error)
	}{
		{"local", none, func(*testing.T) ([]graph.NodeID, []float32, error) {
			return gather(sampler.LocalStore{G: g})
		}},
		{"disk", none, func(t *testing.T) ([]graph.NodeID, []float32, error) {
			dir := t.TempDir()
			if err := store.Create(dir, g); err != nil {
				t.Fatal(err)
			}
			ds, err := store.Open(dir, store.WithMemoryBudget(4*store.PageSize))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ds.Close() })
			return gather(ds)
		}},
		{"dynamic", none, func(*testing.T) ([]graph.NodeID, []float32, error) {
			return gather(graph.NewDynamic(g))
		}},
		{"hetero", none, func(t *testing.T) ([]graph.NodeID, []float32, error) {
			view, err := hetero.RelationView("follows")
			if err != nil {
				t.Fatal(err)
			}
			return gather(view)
		}},
		// The partial client itself is the "partial" rows above. The
		// executor's windowed store runs over it here: the sentinel goes in
		// beneath the window, on the buffer KHop took unzeroed, and every
		// slot of the result must come back defined.
		{"windowed", onDead, func(t *testing.T) ([]graph.NodeID, []float32, error) {
			ft, client := build(t, false, true)
			ft.KillServer(dead)
			cfg := sampler.Config{Fanouts: []int{2}, NegativeRate: 1, FetchAttrs: true, Seed: 1}
			res, err := pipeline.New(poisoned{client}, cfg, pipeline.Config{}).Sample(bg, ids)
			if res == nil {
				t.Fatalf("batch failed: %v", err)
			}
			t.Cleanup(res.Release)
			return sampler.AttrOrder(res), res.Attrs, err
		}},
	} {
		t.Run("store="+tc.name, func(t *testing.T) {
			got, attrs, err := tc.run(t)
			var degraded interface{ Lost(graph.NodeID) bool }
			if lossy := slices.ContainsFunc(ids, tc.lost); lossy != errors.As(err, &degraded) || !lossy && err != nil {
				t.Fatalf("AttrsBatch returned %v", err)
			}
			checkAgainstGraph(t, g, got, nil, attrs, tc.lost)
		})
	}
}
