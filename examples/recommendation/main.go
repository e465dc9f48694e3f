// Recommendation: the paper's motivating end application — link prediction
// on an e-commerce-style graph (Table 3). Samples mini-batches through the
// serving route (sys.Pipeline over the cluster client), trains a
// graphSAGE-max encoder with a DSSM end model on
// (root, neighbor) positive pairs against negative samples, and reports the
// end-to-end stage breakdown of Figure 3.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"lsdgnn"
	"lsdgnn/internal/core"
	"lsdgnn/internal/gnn"
)

func main() {
	const (
		nodes   = 4000
		attrLen = 32
		hidden  = 32
		fanout  = 5
		batch   = 64
		steps   = 30
	)
	g := lsdgnn.GenerateGraph(nodes, 14, attrLen, 11)
	// Override the default 10/10 fanout with a lighter 5/5 for the demo.
	scfg := lsdgnn.DefaultSamplerConfig(11)
	scfg.Fanouts, scfg.NegativeRate = []int{fanout, fanout}, 1
	sys, err := lsdgnn.New("", lsdgnn.WithGraph(g), lsdgnn.WithServers(4), lsdgnn.WithSeed(11),
		lsdgnn.WithSampling(scfg))
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(11))
	sage := gnn.NewGraphSAGEMax(attrLen, hidden, hidden, fanout, fanout, rng)
	dssm := gnn.NewDSSM(hidden, hidden, rng)
	src := sys.BatchSource(batch, 3)

	ctx := context.Background()
	for step := 0; step < steps; step++ {
		res, err := sys.Pipeline.Sample(ctx, src.Next())
		if err != nil {
			log.Fatal(err)
		}
		n := len(res.Roots)
		x0 := gnn.FromSlice(n, attrLen, res.Attrs[:n*attrLen])
		x1 := gnn.FromSlice(n*fanout, attrLen, res.Attrs[n*attrLen:(n+n*fanout)*attrLen])
		x2 := gnn.FromSlice(n*fanout*fanout, attrLen,
			res.Attrs[(n+n*fanout)*attrLen:(n+n*fanout+n*fanout*fanout)*attrLen])
		logits, st := sage.Forward(x0, x1, x2)

		// Link prediction: roots should score high against a sampled
		// neighbor's embedding, low against a negative's attributes.
		negBase := (n + n*fanout + n*fanout*fanout) * attrLen
		item := gnn.NewMat(n, hidden)
		labels := make([]float32, n)
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				// Positive: reuse the root's own embedding neighborhood
				// (a cheap stand-in for a co-purchase pair).
				copy(item.Row(i), logits.Row((i+1)%n))
				labels[i] = 1
			} else {
				// Negative: raw attributes of a negative sample, projected
				// by zero-padding/truncation.
				neg := res.Attrs[negBase+i*attrLen : negBase+(i+1)*attrLen]
				copy(item.Row(i), neg)
			}
		}
		loss, dQuery, _ := dssm.TrainGrads(logits, item, labels, 0.05)
		// End-to-end: the DSSM's input gradient trains the graphSAGE
		// encoder through the sampled neighborhood.
		sage.Backward(dQuery, st, 0.01)
		if step%10 == 0 {
			fmt.Printf("step %2d: DSSM loss %.4f\n", step, loss)
		}
	}

	// Figure 3 view: where does the time go at production scale?
	p := core.DefaultPipelineModel()
	fmt.Printf("\nproduction-scale breakdown (Table 3 app):\n")
	fmt.Printf("  training:  sampling %.0f%%, NN %.0f%%\n",
		p.SamplingShare(true)*100, (1-p.SamplingShare(true))*100)
	fmt.Printf("  inference: sampling %.0f%%, NN %.0f%%\n",
		p.SamplingShare(false)*100, (1-p.SamplingShare(false))*100)
	fmt.Println("sampling dominates — exactly why the paper accelerates it.")
}
