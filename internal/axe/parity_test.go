package axe

import (
	"context"
	"reflect"
	"testing"

	"lsdgnn/internal/pipeline"
	"lsdgnn/internal/sampler"
)

// TestEngineRootStreamsParity: with RootStreams on, the event-driven
// engine — cores racing through an out-of-order hardware window — must
// produce the same bytes as the software pipeline executor and the
// synchronous sampler. One determinism story across every execution
// substrate. (Cycles are excluded: the engine accounts sampling steps in
// simulated time, not in the functional result.)
func TestEngineRootStreamsParity(t *testing.T) {
	g := testGraph(t)
	cfg := quickConfig()
	cfg.Sampling.FetchAttrs = true
	cfg.Sampling.RootStreams = true
	cfg.Sampling.Seed = 1234
	roots := testRoots(g, 16)

	e := newEngine(t, g, 4, cfg)
	hw, _ := e.RunBatch(roots)

	ref, err := sampler.New(sampler.LocalStore{G: g}, cfg.Sampling).Sample(context.Background(), roots)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := pipeline.New(sampler.LocalStore{G: g}, cfg.Sampling, pipeline.Config{Window: 32}).
		Sample(context.Background(), roots)
	if err != nil {
		t.Fatal(err)
	}

	for label, got := range map[string]*sampler.Result{"engine": hw, "pipeline": sw} {
		if !reflect.DeepEqual(got.Roots, ref.Roots) {
			t.Fatalf("%s: roots differ from synchronous sampler", label)
		}
		if !reflect.DeepEqual(got.Hops, ref.Hops) {
			t.Fatalf("%s: hops differ from synchronous sampler", label)
		}
		if !reflect.DeepEqual(got.Negatives, ref.Negatives) {
			t.Fatalf("%s: negatives differ from synchronous sampler", label)
		}
		if !reflect.DeepEqual(got.Attrs, ref.Attrs) {
			t.Fatalf("%s: attrs differ from synchronous sampler", label)
		}
	}
}
