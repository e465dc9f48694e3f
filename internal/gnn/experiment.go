package gnn

import (
	"math/rand"

	"lsdgnn/internal/graph"
	"lsdgnn/internal/sampler"
)

// Streaming-sampling accuracy experiment (Section 4.2 Tech-2): the paper
// reports that step-based streaming sampling matches conventional sampling
// on PPI (0.548 vs 0.549 micro-F1). We reproduce the comparison on a
// synthetic multi-label dataset whose labels are functions of the true
// neighborhood, so any sampling bias would surface as an accuracy gap.

// SyntheticLabels builds an n×L label matrix where label ℓ of node v is 1
// when the mean of attribute ℓ over v's full neighborhood (plus v) is
// positive. Labels therefore depend on exactly the data sampling feeds the
// aggregator.
func SyntheticLabels(g *graph.Graph, labels int) *Mat {
	n := int(g.NumNodes())
	out := NewMat(n, labels)
	var buf []float32
	for v := 0; v < n; v++ {
		sums := make([]float64, labels)
		count := 0
		add := func(u graph.NodeID) {
			buf = g.Attr(buf[:0], u)
			for l := 0; l < labels; l++ {
				sums[l] += float64(buf[l])
			}
			count++
		}
		add(graph.NodeID(v))
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			add(u)
		}
		for l := 0; l < labels; l++ {
			if sums[l]/float64(count) > 0 {
				out.Set(v, l, 1)
			}
		}
	}
	return out
}

// AccuracyConfig configures one training run.
type AccuracyConfig struct {
	Nodes     int64
	AvgDegree float64
	AttrLen   int
	Labels    int
	Hidden    int
	Fanout1   int
	Fanout2   int
	BatchSize int
	Steps     int
	LR        float32
	Method    sampler.Method
	Seed      int64
}

// DefaultAccuracyConfig returns a laptop-scale configuration that separates
// signal from noise in a few seconds.
func DefaultAccuracyConfig(m sampler.Method) AccuracyConfig {
	return AccuracyConfig{
		Nodes: 2000, AvgDegree: 14, AttrLen: 16, Labels: 8, Hidden: 32,
		Fanout1: 5, Fanout2: 5, BatchSize: 64, Steps: 120, LR: 0.5,
		Method: m, Seed: 7,
	}
}

// batchMats splits a sampling result's attribute block into the x0/x1/x2
// matrices GraphSAGEMax consumes.
func batchMats(res *sampler.Result, attrLen, f1, f2 int) (x0, x1, x2 *Mat) {
	n := len(res.Roots)
	x0 = FromSlice(n, attrLen, res.Attrs[:n*attrLen])
	x1 = FromSlice(n*f1, attrLen, res.Attrs[n*attrLen:(n+n*f1)*attrLen])
	x2 = FromSlice(n*f1*f2, attrLen, res.Attrs[(n+n*f1)*attrLen:(n+n*f1+n*f1*f2)*attrLen])
	return
}

// RunSamplingAccuracy trains graphSAGE-max with the configured sampling
// method and returns the held-out micro-F1.
func RunSamplingAccuracy(cfg AccuracyConfig) float64 {
	g := graph.Generate(graph.GenConfig{
		NumNodes: cfg.Nodes, AvgDegree: cfg.AvgDegree, AttrLen: cfg.AttrLen,
		Seed: cfg.Seed, PowerLaw: false, Materialize: true,
	})
	labels := SyntheticLabels(g, cfg.Labels)
	rng := rand.New(rand.NewSource(cfg.Seed))
	model := NewGraphSAGEMax(cfg.AttrLen, cfg.Hidden, cfg.Labels, cfg.Fanout1, cfg.Fanout2, rng)
	store := sampler.LocalStore{G: g}
	scfg := sampler.Config{
		Fanouts: []int{cfg.Fanout1, cfg.Fanout2}, Method: cfg.Method,
		FetchAttrs: true, Seed: cfg.Seed,
	}

	// 80/20 train/test split by node ID parity of a hash.
	isTest := func(v graph.NodeID) bool { return uint64(v)*2654435761%5 == 0 }
	var trainIDs, testIDs []graph.NodeID
	for v := int64(0); v < cfg.Nodes; v++ {
		if isTest(graph.NodeID(v)) {
			testIDs = append(testIDs, graph.NodeID(v))
		} else {
			trainIDs = append(trainIDs, graph.NodeID(v))
		}
	}

	labelBatch := func(ids []graph.NodeID) *Mat {
		y := NewMat(len(ids), cfg.Labels)
		for i, v := range ids {
			copy(y.Row(i), labels.Row(int(v)))
		}
		return y
	}

	for step := 0; step < cfg.Steps; step++ {
		roots := make([]graph.NodeID, cfg.BatchSize)
		for i := range roots {
			roots[i] = trainIDs[rng.Intn(len(trainIDs))]
		}
		// Draws are a pure function of (seed, root index, hop, position):
		// a seed per step gives each step fresh draws.
		scfg.Seed = sampler.StreamSeed(cfg.Seed, uint64(step))
		res := sampler.New(store, scfg).SampleBatch(roots)
		x0, x1, x2 := batchMats(res, cfg.AttrLen, cfg.Fanout1, cfg.Fanout2)
		logits, st := model.Forward(x0, x1, x2)
		_, grad := BCELoss(logits, labelBatch(roots))
		model.Backward(grad, st, cfg.LR)
	}

	// Evaluate on held-out roots.
	scfg.Seed = cfg.Seed
	res := sampler.New(store, scfg).SampleBatch(testIDs)
	x0, x1, x2 := batchMats(res, cfg.AttrLen, cfg.Fanout1, cfg.Fanout2)
	logits, _ := model.Forward(x0, x1, x2)
	return MicroF1(Predict(logits), labelBatch(testIDs))
}
