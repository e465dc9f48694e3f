package store

import (
	"context"
	"encoding/binary"
	"testing"

	"lsdgnn/internal/graph"
)

// FuzzNeighborsBatch holds the batch read to the adjacency it must give:
// the segment's run, then the frozen memtable's entries, then the live
// one's, and the scalar Neighbors besides. IDs repeat, run past NumNodes
// and carry memtable edges; dst slots arrive empty, too small or large
// enough to reuse; and the stores are one whose budget evicts within a
// call and one that is mapped. No two lists may share memory.
func FuzzNeighborsBatch(f *testing.F) {
	g := testGraph(f, false)
	n := g.NumNodes()
	overlay := func(s *DiskStore) (frozen, live map[graph.NodeID][]graph.NodeID) {
		for _, e := range [][2]graph.NodeID{{3, 9}, {3, 4}, {40, 1}, {499, 0}, {7, 7}} {
			if err := s.AddEdge(e[0], e[1]); err != nil {
				f.Fatal(err)
			}
		}
		// A failed compaction leaves its frozen memtable serving reads.
		frozen = map[graph.NodeID][]graph.NodeID{3: {11}, 41: {2, 5}, 7: {1}}
		s.mu.Lock()
		defer s.mu.Unlock()
		s.frozen = frozen
		return frozen, s.delta
	}
	type fixture struct {
		name         string
		s            *DiskStore
		frozen, live map[graph.NodeID][]graph.NodeID
	}
	var stores []fixture
	for _, tc := range []struct {
		name string
		opts []Option
	}{{"budgeted", []Option{WithMemoryBudget(2 * PageSize)}}, {"mapped", nil}} {
		_, s := mustCreate(f, g, tc.opts...)
		frozen, live := overlay(s)
		stores = append(stores, fixture{tc.name, s, frozen, live})
	}
	f.Add([]byte{3, 0, 0, 3, 0, 1, 0xff, 0xff, 2, 3, 0, 0x80, 1})
	f.Add([]byte{7, 0, 9, 7, 0, 9, 40, 0, 5, 243, 1, 0, 41, 0, 2})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// 128 IDs already evict within a call on a two-page budget; longer
		// inputs only slow the minimizer down.
		if len(data) > 3*128 {
			return
		}
		// Three bytes an ID: a little-endian u16 (bit 15 lifts it past any
		// graph: 2^63 + the rest) and the dst slot's capacity on entry.
		var vs []graph.NodeID
		var caps []int
		for ; len(data) >= 3; data = data[3:] {
			u := binary.LittleEndian.Uint16(data)
			v := graph.NodeID(u) % graph.NodeID(n+8)
			if u&0x8000 != 0 {
				v = 1<<63 | graph.NodeID(u&0x7fff)
			}
			vs, caps = append(vs, v), append(caps, int(data[2]%40))
		}
		for _, st := range stores {
			dst := make([][]graph.NodeID, len(vs))
			for i, c := range caps {
				if c > 0 {
					dst[i] = make([]graph.NodeID, c)
					for j := range dst[i] {
						dst[i][j] = 1 << 62 // stale contents must never show
					}
				}
			}
			if err := st.s.NeighborsBatch(context.Background(), dst, vs); err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
			for i, v := range vs {
				want := append(append(append([]graph.NodeID(nil), g.Neighbors(v)...), st.frozen[v]...), st.live[v]...)
				if !equalIDs(dst[i], want) {
					t.Fatalf("%s: node %d at %d: %v, want %v", st.name, v, i, dst[i], want)
				}
				if got := st.s.Neighbors(v); !equalIDs(got, want) {
					t.Fatalf("%s: scalar Neighbors(%d) %v, want %v", st.name, v, got, want)
				}
			}
			// Mark every list with its own position: a list sharing memory
			// with another then holds the other's mark.
			for i := range dst {
				for j := range dst[i] {
					dst[i][j] = graph.NodeID(i)
				}
			}
			for i := range dst {
				for _, x := range dst[i] {
					if x != graph.NodeID(i) {
						t.Fatalf("%s: list %d shares memory with list %d", st.name, i, x)
					}
				}
			}
		}
	})
}
