package trace

import (
	"reflect"
	"sync"
	"testing"
)

func TestAccessStatsBasic(t *testing.T) {
	var s AccessStats
	s.Record(AccessStructure, 1, 8, false)
	s.Record(AccessStructure, 1, 16, true)
	s.Record(AccessAttribute, 1, 512, true)
	if s.Requests(AccessStructure) != 2 || s.Requests(AccessAttribute) != 1 {
		t.Fatalf("request counts wrong")
	}
	if s.Bytes(AccessStructure) != 24 || s.Bytes(AccessAttribute) != 512 {
		t.Fatalf("byte counts wrong")
	}
	if got := s.StructureRequestShare(); got < 0.66 || got > 0.67 {
		t.Fatalf("structure share = %v, want 2/3", got)
	}
	if got := s.RemoteShare(); got < 0.66 || got > 0.67 {
		t.Fatalf("remote share = %v, want 2/3", got)
	}
	if got := s.AvgRequestBytes(AccessStructure); got != 12 {
		t.Fatalf("avg struct bytes = %v", got)
	}
}

// TestAccessStatsRecordCount: one Record of a counted vector leaves the
// same totals as recording its elements one by one.
func TestAccessStatsRecordCount(t *testing.T) {
	var each, once AccessStats
	for _, n := range []int{16, 40, 24} {
		each.Record(AccessStructure, 1, n, true)
	}
	once.Record(AccessStructure, 3, 80, true)
	once.Record(AccessAttribute, 0, 0, true)
	if got, want := once.StatsSnapshot(), each.StatsSnapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("counted record %v, per-element records %v", got, want)
	}
}

func TestAccessStatsEmpty(t *testing.T) {
	var s AccessStats
	if s.StructureRequestShare() != 0 || s.RemoteShare() != 0 || s.AvgRequestBytes(AccessAttribute) != 0 {
		t.Fatal("empty stats should report zeros")
	}
}

func TestAccessStatsReset(t *testing.T) {
	var s AccessStats
	s.Record(AccessAttribute, 1, 100, true)
	s.Reset()
	if s.Requests(AccessAttribute) != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestAccessStatsConcurrent(t *testing.T) {
	var s AccessStats
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				s.Record(AccessStructure, 1, 8, j%2 == 0)
			}
		}()
	}
	wg.Wait()
	if s.Requests(AccessStructure) != 8000 {
		t.Fatalf("requests = %d, want 8000", s.Requests(AccessStructure))
	}
}

func TestAccessClassString(t *testing.T) {
	if AccessStructure.String() != "structure" || AccessAttribute.String() != "attribute" {
		t.Fatal("class names wrong")
	}
	if AccessClass(99).String() == "" {
		t.Fatal("unknown class should still print")
	}
}

func TestStageTimer(t *testing.T) {
	st := NewStageTimer()
	st.Add("sampling", 6.4)
	st.Add("nn", 3.6)
	st.Add("sampling", 0) // no-op add
	if got := st.Total(); got < 9.99 || got > 10.01 {
		t.Fatalf("total = %v", got)
	}
	if got := st.Share("sampling"); got < 0.639 || got > 0.641 {
		t.Fatalf("sampling share = %v", got)
	}
	br := st.Breakdown()
	if len(br) != 2 || br[0].Stage != "sampling" || br[1].Stage != "nn" {
		t.Fatalf("breakdown = %v", br)
	}
	if br[0].Share+br[1].Share < 0.999 {
		t.Fatalf("shares do not sum to 1: %v", br)
	}
}

func TestStageTimerEmpty(t *testing.T) {
	st := NewStageTimer()
	if st.Share("x") != 0 || st.Total() != 0 || len(st.Breakdown()) != 0 {
		t.Fatal("empty timer should report zeros")
	}
}

func TestStageTimerDeterministicOrder(t *testing.T) {
	st := NewStageTimer()
	st.Add("b", 1)
	st.Add("a", 1)
	br := st.Breakdown()
	if br[0].Stage != "a" || br[1].Stage != "b" {
		t.Fatalf("equal-time stages not name-ordered: %v", br)
	}
}
